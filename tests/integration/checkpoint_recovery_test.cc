// Checkpoint + WAL-suffix recovery, end to end: bounded replay after a
// seal, compaction of covered segments, reopen-and-continue across
// checkpoints, and a fault-injection sweep that crashes the checkpointed
// ingest workload at every single mutating filesystem operation —
// including every write, sync, and rename of the checkpoint seal and
// every remove of segment GC.
//
// Invariants the sweep holds at every crash point: durable records are
// never lost, pruned history stays pruned, GC'd segments never come
// back, and a tampered or torn checkpoint is refused rather than
// half-loaded.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "provenance/checkpoint.h"
#include "provenance/ingest_pipeline.h"
#include "provenance/serialization.h"
#include "provenance/tracked_database.h"
#include "provenance/verifier.h"
#include "storage/fault_injection_env.h"
#include "storage/wal.h"
#include "testing/differential.h"
#include "testing/test_pki.h"

namespace provdb::provenance {
namespace {

using provdb::testing::DifferentialWorkloadOptions;
using provdb::testing::EncodedInCommitOrder;
using provdb::testing::DurableTrackedDatabase;
using provdb::testing::IngestWorkloadBuilder;
using provdb::testing::OpenDurableTrackedDatabase;
using provdb::testing::RandomDifferentialWorkload;
using provdb::testing::RecoverOneShard;
using provdb::testing::SubmitWithDrainCadence;
using provdb::testing::TestPki;
using provdb::testing::WipeIngestRoot;
using storage::Env;
using storage::FaultInjectionEnv;
using storage::ObjectId;
using storage::Value;
using storage::WalRecoveryReport;
using storage::WalWriter;

const crypto::Participant& P(int i) {
  return TestPki::Instance().participant(static_cast<size_t>(i - 1));
}

crypto::RsaSignatureVerifier SealVerifier() {
  return crypto::RsaSignatureVerifier(P(1).public_key());
}

std::string FreshDir(const std::string& tag) {
  std::string root = ::testing::TempDir() + "/provdb_ckpt_recovery_" + tag;
  EXPECT_TRUE(WipeIngestRoot(Env::Default(), root).ok());
  return root;
}

/// The WAL directory of the one-shard pipeline rooted at `root`.
std::string ShardDir(const std::string& root) {
  return ShardedProvenanceStore::ShardDirName(root, 0);
}

/// Seals a checkpoint only when asked (CheckpointNow), with P(1)'s key.
IngestOptions ManualCheckpoints() {
  IngestOptions options;
  options.checkpoint.signer = &P(1).signer();
  options.checkpoint.sealer_id = P(1).id();
  return options;
}

// ---------------------------------------------------------------------------
// TrackedDatabase over a one-shard pipeline: CheckpointNow's bounded
// recovery and compaction.
// ---------------------------------------------------------------------------

TEST(CheckpointRecoveryTest, RecoveryReplaysOnlyTheSuffix) {
  std::string root = FreshDir("suffix");
  auto durable =
      OpenDurableTrackedDatabase(Env::Default(), root, ManualCheckpoints());
  ASSERT_TRUE(durable.ok()) << durable.status().ToString();
  TrackedDatabase& db = *durable->db;
  const std::string dir = ShardDir(root);

  std::vector<ObjectId> docs;
  for (int i = 0; i < 12; ++i) {
    docs.push_back(db.Insert(P(1), Value::Int(i)).value());
  }
  ASSERT_TRUE(durable->pipeline->CheckpointNow().ok());
  // The sealed history is compacted away: segment 1 must be gone.
  EXPECT_FALSE(Env::Default()->FileExists(WalWriter::SegmentFileName(dir, 1)));
  EXPECT_TRUE(Env::Default()->FileExists(CheckpointFileName(dir, 1)));

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(db.Update(P(2), docs[static_cast<size_t>(i)],
                          Value::Int(100 + i))
                    .ok());
  }

  auto verifier = SealVerifier();
  WalRecoveryReport report;
  auto recovered = RecoverOneShard(Env::Default(), root, &report, &verifier);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  // O(delta): 12 records came from the checkpoint, only the 3-record
  // suffix was replayed from WAL frames.
  EXPECT_EQ(report.checkpoint_horizon, 1u);
  EXPECT_EQ(report.checkpoint_records, 12u);
  EXPECT_EQ(report.records, 3u);
  ASSERT_EQ(recovered->record_count(), 15u);
  // Record-for-record equality with the live store.
  for (uint64_t i = 0; i < recovered->record_count(); ++i) {
    EXPECT_EQ(EncodeRecord(recovered->shard(0).record(i)),
              EncodeRecord(db.provenance().record(i)))
        << "record " << i;
  }
}

TEST(CheckpointRecoveryTest, CheckpointWithoutVerifierIsRefused) {
  std::string root = FreshDir("no_verifier");
  auto durable =
      OpenDurableTrackedDatabase(Env::Default(), root, ManualCheckpoints());
  ASSERT_TRUE(durable.ok()) << durable.status().ToString();
  ASSERT_TRUE(durable->db->Insert(P(1), Value::Int(1)).ok());
  ASSERT_TRUE(durable->pipeline->CheckpointNow().ok());

  // Recovering *around* an unverifiable snapshot would silently drop its
  // history — refuse instead.
  auto recovered = RecoverOneShard(Env::Default(), root);
  EXPECT_EQ(recovered.status().code(), StatusCode::kFailedPrecondition);
}

TEST(CheckpointRecoveryTest, TamperedCheckpointIsRefusedAtRecovery) {
  std::string root = FreshDir("tampered");
  auto durable =
      OpenDurableTrackedDatabase(Env::Default(), root, ManualCheckpoints());
  ASSERT_TRUE(durable.ok()) << durable.status().ToString();
  ASSERT_TRUE(durable->db->Insert(P(1), Value::Int(1)).ok());
  ASSERT_TRUE(durable->db->Insert(P(1), Value::Int(2)).ok());
  ASSERT_TRUE(durable->pipeline->CheckpointNow().ok());

  const std::string path = CheckpointFileName(ShardDir(root), 1);
  auto content = Env::Default()->ReadFileToBytes(path);
  ASSERT_TRUE(content.ok());
  (*content)[content->size() / 2] ^= 0x01;
  auto file = Env::Default()->NewWritableFile(path);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append(*content).ok());
  ASSERT_TRUE((*file)->Close().ok());

  auto verifier = SealVerifier();
  auto recovered = RecoverOneShard(Env::Default(), root, nullptr, &verifier);
  ASSERT_FALSE(recovered.ok());
  EXPECT_TRUE(recovered.status().code() == StatusCode::kCorruption ||
              recovered.status().code() == StatusCode::kVerificationFailed)
      << recovered.status().ToString();
}

TEST(CheckpointRecoveryTest, PrunedHistoryStaysPrunedAcrossCheckpoint) {
  std::string root = FreshDir("pruned");
  auto durable =
      OpenDurableTrackedDatabase(Env::Default(), root, ManualCheckpoints());
  ASSERT_TRUE(durable.ok()) << durable.status().ToString();
  TrackedDatabase& db = *durable->db;

  ObjectId keep = db.Insert(P(1), Value::Int(1)).value();
  ObjectId doomed = db.Insert(P(1), Value::Int(2)).value();
  ASSERT_TRUE(db.Update(P(2), doomed, Value::Int(3)).ok());
  ASSERT_TRUE(db.Delete(P(2), doomed).ok());
  ASSERT_TRUE(durable->pipeline->Prune(doomed).ok());
  ASSERT_TRUE(durable->pipeline->CheckpointNow().ok());
  ASSERT_TRUE(db.Update(P(2), keep, Value::Int(4)).ok());

  auto verifier = SealVerifier();
  auto recovered = RecoverOneShard(Env::Default(), root, nullptr, &verifier);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(recovered->shard(0).ChainOf(doomed).empty())
      << "checkpoint resurrection of pruned history";
  EXPECT_EQ(recovered->shard(0).ChainOf(keep).size(), 2u);
}

TEST(CheckpointRecoveryTest, SecondCheckpointSupersedesTheFirst) {
  std::string root = FreshDir("supersede");
  auto durable =
      OpenDurableTrackedDatabase(Env::Default(), root, ManualCheckpoints());
  ASSERT_TRUE(durable.ok()) << durable.status().ToString();
  TrackedDatabase& db = *durable->db;
  IngestPipeline& pipeline = *durable->pipeline;
  const std::string dir = ShardDir(root);

  ObjectId doc = db.Insert(P(1), Value::Int(1)).value();
  ASSERT_TRUE(pipeline.CheckpointNow().ok());
  // Nothing new: re-checkpointing is a no-op, not a fresh seal.
  ASSERT_TRUE(pipeline.CheckpointNow().ok());
  EXPECT_TRUE(Env::Default()->FileExists(CheckpointFileName(dir, 1)));

  ASSERT_TRUE(db.Update(P(2), doc, Value::Int(2)).ok());
  ASSERT_TRUE(pipeline.CheckpointNow().ok());
  // The old seal and every covered segment are gone; only the newest
  // checkpoint plus the fresh (empty) active segment remain.
  EXPECT_FALSE(Env::Default()->FileExists(CheckpointFileName(dir, 1)));
  auto latest = LatestCheckpointHorizon(Env::Default(), dir);
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(*latest, 2u);
  EXPECT_FALSE(Env::Default()->FileExists(WalWriter::SegmentFileName(dir, 1)));
  EXPECT_FALSE(Env::Default()->FileExists(WalWriter::SegmentFileName(dir, 2)));

  auto verifier = SealVerifier();
  WalRecoveryReport report;
  auto recovered = RecoverOneShard(Env::Default(), root, &report, &verifier);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(report.checkpoint_horizon, 2u);
  EXPECT_EQ(recovered->record_count(), 2u);
}

// ---------------------------------------------------------------------------
// Crash sweep over a TrackedDatabase's checkpoints — every mutating
// filesystem op of the seal (tmp write, sync, rename) and the GC
// (segment removes, dir syncs) fails in turn, then the power cut hits.
// ---------------------------------------------------------------------------

/// Phase A (never faulted): a base workload with a durable prune.
/// Returns the ids of the surviving object and the pruned one.
void RunCheckpointSweepBase(const DurableTrackedDatabase& durable,
                            ObjectId* keep, ObjectId* doomed) {
  TrackedDatabase& db = *durable.db;
  *keep = db.Insert(P(1), Value::Int(1)).value();
  *doomed = db.Insert(P(1), Value::Int(2)).value();
  ASSERT_TRUE(db.Update(P(2), *keep, Value::Int(3)).ok());
  ASSERT_TRUE(db.Delete(P(2), *doomed).ok());
  ASSERT_TRUE(durable.pipeline->Prune(*doomed).ok());
}

/// Phase B (swept): checkpoint, more updates, second checkpoint.
Status RunCheckpointSweepPhaseB(const DurableTrackedDatabase& durable,
                                ObjectId keep) {
  PROVDB_RETURN_IF_ERROR(durable.pipeline->CheckpointNow());
  PROVDB_RETURN_IF_ERROR(durable.db->Update(P(2), keep, Value::Int(4)));
  PROVDB_RETURN_IF_ERROR(durable.db->Update(P(1), keep, Value::Int(5)));
  return durable.pipeline->CheckpointNow();
}

TEST(CheckpointCrashSweepTest, CrashAtEveryCheckpointAndGcOp) {
  // Dry run: count the mutating ops of phase B so the sweep covers every
  // one of them (checkpoint tmp append, file sync, rename, stale-seal
  // removes, segment removes, dir syncs — all of it).
  uint64_t phase_a_ops = 0;
  uint64_t total_ops = 0;
  {
    FaultInjectionEnv env(Env::Default());
    auto durable = OpenDurableTrackedDatabase(&env, FreshDir("sweep_dry"),
                                              ManualCheckpoints());
    ASSERT_TRUE(durable.ok()) << durable.status().ToString();
    ObjectId keep = 0, doomed = 0;
    RunCheckpointSweepBase(*durable, &keep, &doomed);
    if (::testing::Test::HasFatalFailure()) return;
    phase_a_ops = env.mutating_ops();
    ASSERT_TRUE(RunCheckpointSweepPhaseB(*durable, keep).ok());
    total_ops = env.mutating_ops();
  }
  ASSERT_GT(total_ops, phase_a_ops + 10)
      << "phase B too small to be a sweep";

  for (uint64_t k = phase_a_ops + 1; k <= total_ops; ++k) {
    SCOPED_TRACE("crash at mutating op " + std::to_string(k));
    FaultInjectionEnv env(Env::Default());
    std::string root = FreshDir("sweep_" + std::to_string(k));
    ObjectId keep = 0, doomed = 0;
    uint64_t live_at_crash = 0;
    {
      auto durable = OpenDurableTrackedDatabase(&env, root,
                                                ManualCheckpoints());
      ASSERT_TRUE(durable.ok()) << durable.status().ToString();
      RunCheckpointSweepBase(*durable, &keep, &doomed);
      if (::testing::Test::HasFatalFailure()) return;
      env.ScheduleCrashAtOp(k - env.mutating_ops());
      // The workload stops at its first I/O error, like a real writer.
      RunCheckpointSweepPhaseB(*durable, keep).ok();
      live_at_crash = durable->db->provenance().live_record_count();
      // Scope exit without Close(): the crash.
    }
    env.ClearFaults();
    ASSERT_TRUE(env.DropUnsyncedFileData().ok());

    auto verifier = SealVerifier();
    WalRecoveryReport report;
    auto recovered = RecoverOneShard(&env, root, &report, &verifier);
    ASSERT_TRUE(recovered.ok())
        << "crash point must salvage or report, never fail to recover: "
        << recovered.status().ToString();
    // Durable records are never lost: phase A (keep's insert + update
    // surviving the prune) was synced before the sweep window, and
    // everything the store committed was WAL'd write-ahead behind a sync
    // by the time a checkpoint touched it.
    EXPECT_GE(recovered->live_record_count(), 2u)
        << "phase A records lost at crash point " << k;
    EXPECT_LE(recovered->live_record_count(), live_at_crash);
    // Pruned history stays pruned — no checkpoint or replay path may
    // resurrect it.
    EXPECT_TRUE(recovered->shard(0).ChainOf(doomed).empty());
    EXPECT_GE(recovered->shard(0).ChainOf(keep).size(), 2u);
  }
}

// ---------------------------------------------------------------------------
// IngestPipeline: periodic per-shard checkpoints, reopen-and-continue,
// and the full-workload crash sweep.
// ---------------------------------------------------------------------------

constexpr size_t kSweepShards = 2;

IngestOptions CheckpointedIngestOptions(
    const crypto::RsaSignatureVerifier* verifier) {
  IngestOptions options;
  options.num_shards = kSweepShards;
  options.max_batch_records = 3;
  options.checkpoint.every_records = 4;
  options.checkpoint.signer = &P(1).signer();
  options.checkpoint.sealer_id = P(1).id();
  options.checkpoint.verifier = verifier;
  return options;
}

TEST(CheckpointedIngestTest, PeriodicCheckpointsCompactAndReopen) {
  auto verifier = SealVerifier();
  IngestWorkloadBuilder builder;
  DifferentialWorkloadOptions wl;
  wl.num_ops = 40;
  ASSERT_TRUE(RandomDifferentialWorkload(&builder, 0xC4B57u, wl).ok());
  const std::vector<IngestRequest>& requests = builder.requests();

  std::string root = FreshDir("periodic");
  std::array<uint64_t, kSweepShards> counts{};
  {
    auto pipeline = IngestPipeline::Open(Env::Default(), root,
                                         CheckpointedIngestOptions(&verifier));
    ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
    for (const IngestRequest& request : requests) {
      ASSERT_TRUE((*pipeline)->Submit(request).ok());
    }
    ASSERT_TRUE((*pipeline)->Drain().ok());
    uint64_t total_checkpoints = 0;
    const StoreSnapshot snapshot = (*pipeline)->OpenSnapshot();
    for (size_t s = 0; s < kSweepShards; ++s) {
      counts[s] = snapshot.shard_view(s).record_count();
      total_checkpoints += (*pipeline)->shard_checkpoints(s);
    }
    EXPECT_GT(total_checkpoints, 0u)
        << "the policy thresholds never fired — the test is vacuous";
    ASSERT_TRUE((*pipeline)->Close().ok());
  }

  // Reopen: recovery must thread each shard's checkpoint horizon through
  // to its writer and reproduce the exact store.
  std::vector<WalRecoveryReport> reports;
  auto pipeline = IngestPipeline::Open(Env::Default(), root,
                                       CheckpointedIngestOptions(&verifier),
                                       &reports);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  bool any_checkpointed = false;
  const StoreSnapshot snapshot = (*pipeline)->OpenSnapshot();
  for (size_t s = 0; s < kSweepShards; ++s) {
    EXPECT_EQ(snapshot.shard_view(s).record_count(), counts[s]);
    any_checkpointed |= reports[s].checkpoint_horizon > 0;
  }
  EXPECT_TRUE(any_checkpointed);
  auto verify = ProvenanceVerifier(&TestPki::Instance().registry())
                    .VerifyStore(snapshot);
  EXPECT_TRUE(verify.ok()) << verify.ToString();
  ASSERT_TRUE((*pipeline)->Close().ok());

  // Without the verifier, a checkpointed shard must refuse to open.
  auto blind = IngestPipeline::Open(Env::Default(), root,
                                    CheckpointedIngestOptions(nullptr));
  EXPECT_EQ(blind.status().code(), StatusCode::kFailedPrecondition);
}

TEST(CheckpointedIngestTest, CheckpointNowSealsEveryShard) {
  auto verifier = SealVerifier();
  IngestWorkloadBuilder builder;
  DifferentialWorkloadOptions wl;
  wl.num_ops = 16;
  ASSERT_TRUE(RandomDifferentialWorkload(&builder, 0xC4B58u, wl).ok());

  std::string root = FreshDir("now");
  IngestOptions options = CheckpointedIngestOptions(&verifier);
  options.checkpoint.every_records = 0;  // threshold off; manual only
  auto pipeline = IngestPipeline::Open(Env::Default(), root, options);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  for (const IngestRequest& request : builder.requests()) {
    ASSERT_TRUE((*pipeline)->Submit(request).ok());
  }
  ASSERT_TRUE((*pipeline)->CheckpointNow().ok());
  const StoreSnapshot snapshot = (*pipeline)->OpenSnapshot();
  for (size_t s = 0; s < kSweepShards; ++s) {
    if (snapshot.shard_view(s).record_count() == 0) continue;
    const std::string dir = ShardedProvenanceStore::ShardDirName(root, s);
    auto latest = LatestCheckpointHorizon(Env::Default(), dir);
    EXPECT_TRUE(latest.ok()) << "shard " << s << " never sealed";
  }
  ASSERT_TRUE((*pipeline)->Close().ok());
}

/// An insert of object `id` by P(1).
IngestRequest InsertRequest(ObjectId id) {
  IngestRequest request;
  request.object = id;
  request.post_hash =
      crypto::Digest::FromBytes(Bytes(20, static_cast<uint8_t>(id)));
  request.participant = &P(1);
  return request;
}

// Only a durable seal may delete anything. Here the background seal
// fails to create its file while the disk otherwise works: the stale
// checkpoint and every WAL segment must survive, and recovery must still
// bring back every committed record.
TEST(CheckpointedIngestTest, FailedBackgroundSealDeletesNothing) {
  auto verifier = SealVerifier();
  FaultInjectionEnv env(Env::Default());
  const std::string root = FreshDir("failed_seal");
  IngestOptions options = CheckpointedIngestOptions(&verifier);
  options.num_shards = 1;
  options.signing.num_threads = 4;
  options.checkpoint.every_records = 1 << 20;  // only CheckpointNow seals
  {
    auto pipeline = IngestPipeline::Open(&env, root, options);
    ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
    for (ObjectId id = 1; id <= 16; ++id) {
      ASSERT_TRUE((*pipeline)->Submit(InsertRequest(id)).ok());
      if (id == 8) {
        ASSERT_TRUE((*pipeline)->CheckpointNow().ok());
      }
    }
    ASSERT_TRUE((*pipeline)->Drain().ok());
    auto before = env.ListDir(ShardDir(root));
    ASSERT_TRUE(before.ok());

    // The roll creates the next segment; the seal's file is the second
    // file created, and it fails.
    env.ScheduleNewFileFailure(2);
    EXPECT_EQ((*pipeline)->CheckpointNow().code(), StatusCode::kIoError);
    auto after = env.ListDir(ShardDir(root));
    ASSERT_TRUE(after.ok());
    for (const std::string& name : *before) {
      EXPECT_NE(std::find(after->begin(), after->end(), name), after->end())
          << name << " was deleted behind a seal that never landed";
    }
  }
  auto recovered = ShardedProvenanceStore::Recover(&env, root, 1, nullptr,
                                                   &verifier);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->shard(0).record_count(), 16u);
}

/// Crashes the checkpointed ingest workload at every mutating op. With
/// `signing_threads` > 1 and `drain_every` > 0, Drain() rounds cover both
/// shards and their WAL appends and fsyncs overlap on the pool, so which
/// shard's op is the kth varies between runs; the checks hold for either.
/// `name` prefixes the sweep's directories: ctest runs each test in its
/// own process, in parallel, so no two sweeps may share one.
void SweepEveryMutatingOp(int signing_threads, size_t drain_every,
                          const std::string& name) {
  auto verifier = SealVerifier();
  IngestOptions options = CheckpointedIngestOptions(&verifier);
  options.signing.num_threads = signing_threads;
  IngestWorkloadBuilder builder;
  DifferentialWorkloadOptions wl;
  wl.num_ops = 18;
  ASSERT_TRUE(RandomDifferentialWorkload(&builder, 0xC4B59u, wl).ok());
  const std::vector<IngestRequest>& requests = builder.requests();

  // Golden crash-free run: per-shard record bytes and the op budget.
  std::array<std::vector<Bytes>, kSweepShards> golden;
  uint64_t total_ops = 0;
  {
    FaultInjectionEnv env(Env::Default());
    std::string root = FreshDir(name + "_golden");
    auto pipeline = IngestPipeline::Open(&env, root, options);
    ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
    uint64_t checkpoints = 0;
    ASSERT_TRUE(
        SubmitWithDrainCadence(pipeline->get(), requests, drain_every).ok());
    ASSERT_TRUE((*pipeline)->Close().ok());
    const StoreSnapshot snapshot = (*pipeline)->OpenSnapshot();
    for (size_t s = 0; s < kSweepShards; ++s) {
      golden[s] = EncodedInCommitOrder(snapshot.shard_view(s));
      checkpoints += (*pipeline)->shard_checkpoints(s);
    }
    ASSERT_GT(checkpoints, 0u) << "no checkpoint in the sweep window";
    total_ops = env.mutating_ops();
  }
  ASSERT_GT(total_ops, 20u) << "workload too small to be a sweep";

  for (uint64_t k = 1; k <= total_ops; ++k) {
    SCOPED_TRACE("crash at mutating op " + std::to_string(k));
    FaultInjectionEnv env(Env::Default());
    std::string root = FreshDir(name + "_op" + std::to_string(k));
    env.ScheduleCrashAtOp(k);

    std::array<uint64_t, kSweepShards> committed{};
    {
      auto pipeline = IngestPipeline::Open(&env, root, options);
      if (pipeline.ok()) {
        // Expected to stop at the crash, poisoning the pipeline.
        Status crash =
            SubmitWithDrainCadence(pipeline->get(), requests, drain_every);
        // A pipelined Submit may return with a write-ahead in flight; the
        // Drain resolves it, so the checks below read a quiescent pipeline.
        if (crash.ok()) crash = (*pipeline)->Drain();
        (void)crash;
        const StoreSnapshot snapshot = (*pipeline)->OpenSnapshot();
        for (size_t s = 0; s < kSweepShards; ++s) {
          committed[s] = snapshot.shard_view(s).record_count();
        }
      }
      // Scope exit without Close(): the crash.
    }
    env.ClearFaults();
    ASSERT_TRUE(env.DropUnsyncedFileData().ok());

    // Recovery must succeed at every crash point, and the power cut
    // model pins it exactly: nothing un-fsynced survives, nothing
    // committed is lost, GC'd segments never resurrect records.
    std::vector<WalRecoveryReport> reports;
    auto recovered = ShardedProvenanceStore::Recover(&env, root, kSweepShards,
                                                     &reports, &verifier);
    ASSERT_TRUE(recovered.ok())
        << "crash point must salvage or report, never fail to recover: "
        << recovered.status().ToString();
    for (size_t s = 0; s < kSweepShards; ++s) {
      SCOPED_TRACE("shard " + std::to_string(s));
      const ProvenanceStore& shard = recovered->shard(s);
      EXPECT_EQ(shard.record_count(), committed[s]);
      ASSERT_LE(shard.record_count(), golden[s].size());
      for (uint64_t i = 0; i < shard.record_count(); ++i) {
        EXPECT_EQ(EncodeRecord(shard.record(i)), golden[s][i])
            << "recovered record " << i << " diverged from the golden run";
      }
    }

    // Resume: reopen (threading the recovered horizons), ingest the
    // missing suffix, and require byte-equality with the golden run.
    {
      auto pipeline = IngestPipeline::Open(&env, root, options);
      ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
      std::array<uint64_t, kSweepShards> seen{};
      for (const IngestRequest& request : requests) {
        const size_t s = ShardIndex(request.object, kSweepShards);
        if (seen[s]++ < committed[s]) continue;  // already durable
        ASSERT_TRUE((*pipeline)->Submit(request).ok());
      }
      ASSERT_TRUE((*pipeline)->Close().ok());
      const StoreSnapshot snapshot = (*pipeline)->OpenSnapshot();
      for (size_t s = 0; s < kSweepShards; ++s) {
        SCOPED_TRACE("shard " + std::to_string(s) + " after resume");
        EXPECT_EQ(EncodedInCommitOrder(snapshot.shard_view(s)), golden[s]);
      }
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(CheckpointedIngestCrashSweepTest, CrashAtEveryMutatingOp) {
  SweepEveryMutatingOp(/*signing_threads=*/1, /*drain_every=*/0, "seq");
}

TEST(CheckpointedIngestCrashSweepTest, PooledDrainsCrashAtEveryMutatingOp) {
  SweepEveryMutatingOp(/*signing_threads=*/4, /*drain_every=*/4, "pooled");
}

/// Drives `pipeline` the way the server's poll loop does: Submit each
/// request, close the open batches (Flush) after every third, Poll in
/// between, and count the records each OK completion acknowledges. An
/// aggregate goes in behind a Drain, since a wire client learns its
/// inputs' checksums only from a query-chain, which runs behind one:
/// inputs on other shards are durable before it. Ends with a Drain;
/// returns the first error.
Status SubmitLikeTheServer(IngestPipeline* pipeline,
                           const std::vector<IngestRequest>& requests,
                           std::array<uint64_t, kSweepShards>* acked) {
  pipeline->SetProducerHooks(nullptr,
                             [acked](const BatchCompletion& completion) {
                               if (completion.status.ok()) {
                                 (*acked)[completion.shard] +=
                                     completion.records;
                               }
                             });
  for (size_t i = 0; i < requests.size(); ++i) {
    if (requests[i].op == OperationType::kAggregate) {
      PROVDB_RETURN_IF_ERROR(pipeline->Drain());
    }
    PROVDB_RETURN_IF_ERROR(pipeline->Submit(requests[i]));
    PROVDB_RETURN_IF_ERROR(i % 3 == 2 ? pipeline->Flush() : pipeline->Poll());
  }
  return pipeline->Drain();
}

// Background seals under crashes: a pooled pipeline seals on its sealer
// thread while the producer keeps writing ahead. The sweep crashes it at
// every mutating op of the crash-free run — every roll, every write,
// fsync and rename of a seal, every GC remove, and the write-aheads in
// between — and cuts the power. Recovery must refuse nothing, hold every
// acknowledged record as a prefix of the crash-free run, and verify
// clean.
TEST(CheckpointedIngestCrashSweepTest, BackgroundSealsSurviveACrashAtEveryOp) {
  auto verifier = SealVerifier();
  IngestOptions options = CheckpointedIngestOptions(&verifier);
  options.signing.num_threads = 4;
  options.max_batch_records = 2;
  options.checkpoint.every_records = 3;
  IngestWorkloadBuilder builder;
  DifferentialWorkloadOptions wl;
  wl.num_ops = 30;
  ASSERT_TRUE(RandomDifferentialWorkload(&builder, 0xC4B5Au, wl).ok());
  const std::vector<IngestRequest>& requests = builder.requests();

  std::array<std::vector<Bytes>, kSweepShards> golden;
  uint64_t total_ops = 0;
  {
    FaultInjectionEnv env(Env::Default());
    auto pipeline =
        IngestPipeline::Open(&env, FreshDir("background_golden"), options);
    ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
    std::array<uint64_t, kSweepShards> acked{};
    ASSERT_TRUE(SubmitLikeTheServer(pipeline->get(), requests, &acked).ok());
    ASSERT_TRUE((*pipeline)->Close().ok());
    const StoreSnapshot snapshot = (*pipeline)->OpenSnapshot();
    uint64_t checkpoints = 0;
    for (size_t s = 0; s < kSweepShards; ++s) {
      golden[s] = EncodedInCommitOrder(snapshot.shard_view(s));
      EXPECT_EQ(acked[s], golden[s].size());
      checkpoints += (*pipeline)->shard_checkpoints(s);
    }
    ASSERT_GT(checkpoints, 1u) << "too few seals to sweep";
    total_ops = env.mutating_ops();
  }

  for (uint64_t k = 1; k <= total_ops; ++k) {
    SCOPED_TRACE("crash at mutating op " + std::to_string(k));
    FaultInjectionEnv env(Env::Default());
    const std::string root = FreshDir("background_op" + std::to_string(k));
    env.ScheduleCrashAtOp(k);
    std::array<uint64_t, kSweepShards> acked{};
    {
      auto pipeline = IngestPipeline::Open(&env, root, options);
      if (pipeline.ok()) {
        (void)SubmitLikeTheServer(pipeline->get(), requests, &acked);
      }
      // Scope exit without Close(): the crash.
    }
    env.ClearFaults();
    ASSERT_TRUE(env.DropUnsyncedFileData().ok());

    auto recovered = ShardedProvenanceStore::Recover(&env, root, kSweepShards,
                                                     nullptr, &verifier);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    for (size_t s = 0; s < kSweepShards; ++s) {
      SCOPED_TRACE("shard " + std::to_string(s));
      const ProvenanceStore& shard = recovered->shard(s);
      EXPECT_GE(shard.record_count(), acked[s]) << "an acked record is lost";
      ASSERT_LE(shard.record_count(), golden[s].size());
      for (uint64_t i = 0; i < shard.record_count(); ++i) {
        EXPECT_EQ(EncodeRecord(shard.record(i)), golden[s][i])
            << "recovered record " << i << " diverged from the golden run";
      }
    }
    auto report = ProvenanceVerifier(&TestPki::Instance().registry())
                      .VerifyStore(recovered->OpenSnapshot());
    EXPECT_TRUE(report.ok()) << report.ToString();
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace provdb::provenance
