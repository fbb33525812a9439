// Seeded soak (ctest label `soak`): continuous ingest with a racing
// snapshot auditor and periodic checkpoint+GC, asserting the epoch
// domain's deferred-reclamation machinery is leak-free in steady state —
// `epoch.retired` drains to zero at quiesce and resident memory stays
// flat. Runs a few seconds by default so the tier-1 suite stays fast;
// the CI soak stage sets PROVDB_SOAK_SECONDS=30 for the real run.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "crypto/signer.h"
#include "provenance/verifier.h"
#include "storage/env.h"
#include "testing/differential.h"

namespace provdb::provenance {
namespace {

using provdb::testing::IngestWorkloadBuilder;
using provdb::testing::TestPki;
using provdb::testing::WipeIngestRoot;
using storage::Env;
using storage::ObjectId;

double SoakSeconds() {
  const char* env = std::getenv("PROVDB_SOAK_SECONDS");
  if (env != nullptr) {
    double v = std::atof(env);
    if (v > 0) return v;
  }
  return 2.5;  // default: a smoke-length soak inside tier-1 budgets
}

/// Resident set size in bytes, from /proc/self/statm (0 when the
/// platform has no procfs — the RSS assertion is skipped then).
uint64_t ResidentBytes() {
  std::FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm == nullptr) return 0;
  unsigned long long size = 0;
  unsigned long long resident = 0;
  int got = std::fscanf(statm, "%llu %llu", &size, &resident);
  std::fclose(statm);
  if (got != 2) return 0;
  return static_cast<uint64_t>(resident) * 4096u;
}

TEST(EpochSoakTest, ConcurrentIngestAuditCheckpointStaysFlat) {
  const uint64_t kSeed = 0x50AC0001ull;
  SCOPED_TRACE("seed=" + std::to_string(kSeed));
  const double seconds = SoakSeconds();

  IngestWorkloadBuilder builder;
  const TestPki& pki = TestPki::InstanceFor(builder.algorithm());
  crypto::RsaSignatureVerifier seal_verifier(
      pki.participant(0).public_key());

  IngestOptions options;
  options.num_shards = 2;
  options.max_batch_records = 8;
  options.checkpoint.every_records = 0;  // checkpoints driven manually
  options.checkpoint.signer = &pki.participant(0).signer();
  options.checkpoint.sealer_id = pki.participant(0).id();
  options.checkpoint.verifier = &seal_verifier;
  std::string root = ::testing::TempDir() + "/provdb_epoch_soak";
  ASSERT_TRUE(WipeIngestRoot(Env::Default(), root).ok());
  auto pipeline = IngestPipeline::Open(Env::Default(), root, options);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();

  // Auditor: continuously pins snapshots and spot-verifies them while
  // the writer below keeps ingesting and checkpointing.
  std::atomic<bool> done{false};
  std::atomic<uint64_t> audits{0};
  ThreadPool pool(1);
  // Destroyed before `pool`, so the auditor always unblocks even when an
  // ASSERT below returns from the test early.
  struct StopOnExit {
    std::atomic<bool>* flag;
    ~StopOnExit() { flag->store(true, std::memory_order_release); }
  } stop_on_exit{&done};
  IngestPipeline* live = pipeline->get();
  std::future<bool> auditor = pool.Submit([live, &done, &audits, &builder] {
    ProvenanceVerifier verifier(&builder.registry(), builder.algorithm());
    bool all_clean = true;
    while (!done.load(std::memory_order_acquire)) {
      StoreSnapshot snapshot = live->OpenSnapshot();
      VerificationReport report = verifier.VerifyStore(snapshot);
      // Cross-shard cuts may legitimately leave an aggregate input
      // unresolved; nothing else is tolerable.
      for (const VerificationIssue& issue : report.issues) {
        if (issue.kind != IssueKind::kAggregateInputUnresolved) {
          all_clean = false;
        }
      }
      audits.fetch_add(1, std::memory_order_relaxed);
    }
    return all_clean;
  });

  // Writer: seeded endless insert/update mix, submitted as produced,
  // with periodic full checkpoints (roll + seal + segment GC).
  Rng rng(kSeed);
  Stopwatch clock;
  uint64_t rss_warm = 0;
  uint64_t ops = 0;
  size_t submitted = 0;
  std::vector<ObjectId> objects;
  while (clock.ElapsedSeconds() < seconds) {
    if (objects.empty() || rng.NextBelow(3) == 0) {
      auto id = builder.Insert(rng.NextBelow(TestPki::kNumParticipants),
                               storage::Value::Int(static_cast<int64_t>(ops)));
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      objects.push_back(*id);
    } else {
      ObjectId victim = objects[rng.NextBelow(objects.size())];
      ASSERT_TRUE(builder
                      .Update(victim,
                              rng.NextBelow(TestPki::kNumParticipants),
                              storage::Value::Int(
                                  static_cast<int64_t>(ops) + 1000))
                      .ok());
    }
    ++ops;
    for (; submitted < builder.requests().size(); ++submitted) {
      ASSERT_TRUE((*pipeline)->Submit(builder.requests()[submitted]).ok());
    }
    if (ops % 256 == 0) {
      ASSERT_TRUE((*pipeline)->CheckpointNow().ok());
    }
    if (rss_warm == 0 && clock.ElapsedSeconds() > seconds * 0.25) {
      rss_warm = ResidentBytes();
    }
  }
  ASSERT_TRUE((*pipeline)->Drain().ok());
  done.store(true, std::memory_order_release);
  EXPECT_TRUE(auditor.get()) << "auditor saw a non-cut-induced issue";
  EXPECT_GT(audits.load(), 0u);
  ASSERT_TRUE((*pipeline)->Close().ok());

  // Quiesce: no pinned readers remain, so one advance+collect must
  // drain every deferred node — the epoch.retired backlog goes to zero.
  EpochDomain* domain = (*pipeline)->mutable_store()->epoch_domain();
  ASSERT_NE(domain, nullptr);
  domain->Advance();
  domain->Collect();
  EXPECT_EQ(domain->retired_pending(), 0u);
  EXPECT_EQ(domain->min_pinned_epoch(), 0u);

  // Steady-state RSS: growth after warmup stays bounded (a retired-node
  // leak at this op rate would dwarf the allowance).
  const uint64_t rss_end = ResidentBytes();
  if (rss_warm != 0 && rss_end != 0) {
    const uint64_t record_growth =
        ((*pipeline)->OpenSnapshot().record_count() + 1) * 2048;  // live
    EXPECT_LT(rss_end, rss_warm + record_growth + (64u << 20))
        << "resident set grew unboundedly during the soak";
  }

  // The soak's output is still a fully verifiable store.
  VerificationReport final_report =
      ProvenanceVerifier(&builder.registry(), builder.algorithm())
          .VerifyStore((*pipeline)->OpenSnapshot());
  EXPECT_TRUE(final_report.ok()) << final_report.ToString();
}

}  // namespace
}  // namespace provdb::provenance
