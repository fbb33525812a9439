// Concurrent-auditor differential (DESIGN.md §16): an auditor races the
// live ingest pipeline over a seeded workload, continuously opening
// epoch-pinned snapshots. Every cut it observes must be an *exact
// durable batch prefix* — per-shard record counts on group-commit
// boundaries, chains byte-identical to a quiesced replay of that exact
// prefix, and the verification report byte-identical too. Runs at
// 1/2/8 shards, and at 4/8 shards with a Drain every few submits;
// failures log the seed so the run replays. The suite
// name carries "ConcurrentAudit" so the TSan CI stage selects it.

#include <gtest/gtest.h>

#include <string>

#include "storage/env.h"
#include "testing/differential.h"

namespace provdb::provenance {
namespace {

using provdb::testing::ConcurrentAuditStats;
using provdb::testing::DifferentialWorkloadOptions;
using provdb::testing::IngestWorkloadBuilder;
using provdb::testing::RandomDifferentialWorkload;
using provdb::testing::RunConcurrentAuditDifferential;
using storage::Env;

void RunConcurrentAudit(uint64_t seed, size_t num_shards,
                        int signing_threads, size_t drain_every = 0) {
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " num_shards=" + std::to_string(num_shards) +
               " signing_threads=" + std::to_string(signing_threads) +
               " drain_every=" + std::to_string(drain_every));
  IngestWorkloadBuilder builder;
  DifferentialWorkloadOptions workload;
  workload.num_ops = 120;  // enough batches that cuts race real motion
  Status built = RandomDifferentialWorkload(&builder, seed, workload);
  ASSERT_TRUE(built.ok()) << built.ToString();

  IngestOptions options;
  options.num_shards = num_shards;
  options.max_batch_records = 4;
  options.signing.num_threads = signing_threads;
  std::string root = ::testing::TempDir() + "/provdb_concaudit_" +
                     std::to_string(seed) + "_" + std::to_string(num_shards);
  auto stats = RunConcurrentAuditDifferential(Env::Default(), root, builder,
                                              options, drain_every);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // At minimum the quiesced epilogue cut validated; when the scheduler
  // let the auditor in mid-run there were live cuts too.
  EXPECT_GE(stats->snapshots_checked, 1u);
  EXPECT_GE(stats->nonempty_snapshots, 1u);
  EXPECT_GE(stats->distinct_cuts, 1u);
}

TEST(ConcurrentAuditDifferentialTest, CutsAreDurablePrefixesAtEveryShardCount) {
  const uint64_t seeds[] = {0xCA0D0001u, 0xCA0D0002u};
  const size_t shard_counts[] = {1, 2, 8};
  for (uint64_t seed : seeds) {
    for (size_t shards : shard_counts) {
      RunConcurrentAudit(seed, shards, /*signing_threads=*/1);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(ConcurrentAuditDifferentialTest, CutsSurviveParallelSigningFanOut) {
  // Parallel signing inside each flush plus the lock-free snapshot path:
  // the combination the TSan stage exists to check.
  RunConcurrentAudit(0xCA0D0003u, 2, /*signing_threads=*/4);
}

TEST(ConcurrentAuditDifferentialTest, CutsAreDurablePrefixesUnderDrainCadence) {
  // The writer drains every few submits, so most write-aheads cover
  // every shard and publish them one after another while the auditor
  // keeps opening cuts.
  const size_t shard_counts[] = {4, 8};
  for (size_t shards : shard_counts) {
    RunConcurrentAudit(0xCA0D0004u, shards, /*signing_threads=*/4,
                       /*drain_every=*/6);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace provdb::provenance
