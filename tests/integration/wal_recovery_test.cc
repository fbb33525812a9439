// Durable lifecycle integration: TrackedDatabase -> one-shard ingest
// pipeline WAL -> crash -> recovery -> verification, including a
// fault-injection sweep that crashes the workload at every single file
// write.

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <string>
#include <vector>

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
  return TestPki::Instance().participant(i - 1);
}

std::string FreshDir(const std::string& tag) {
  std::string root = ::testing::TempDir() + "/provdb_wal_recovery_" + tag;
  // Leftover segments from a previous run would be recovered as live
  // history; every caller starts from an empty log directory.
  EXPECT_TRUE(WipeIngestRoot(Env::Default(), root).ok());
  return root;
}

/// The tracked workload every crash point is injected into: a small tree,
/// updates, an aggregation, and a post-aggregation update. Mirrors the
/// persistence integration test so the recovered store faces the same
/// verifier and auditor. Stops at the first failed operation, exactly as
/// a real writer hitting an I/O error would. `after_op` runs after each
/// operation that succeeded.
Status RunWorkload(TrackedDatabase& db, ObjectId* agg_out = nullptr,
                   const std::function<void()>& after_op = [] {}) {
  PROVDB_ASSIGN_OR_RETURN(ObjectId root, db.Insert(P(1), Value::String("db")));
  after_op();
  PROVDB_ASSIGN_OR_RETURN(ObjectId row, db.Insert(P(1), Value::Int(0), root));
  after_op();
  PROVDB_ASSIGN_OR_RETURN(ObjectId cell, db.Insert(P(2), Value::Int(5), row));
  after_op();
  PROVDB_RETURN_IF_ERROR(db.Update(P(1), cell, Value::Int(6)));
  after_op();
  PROVDB_ASSIGN_OR_RETURN(ObjectId agg,
                          db.Aggregate(P(2), {root}, Value::String("agg")));
  after_op();
  PROVDB_RETURN_IF_ERROR(db.Update(P(2), agg, Value::String("agg-v2")));
  after_op();
  if (agg_out != nullptr) {
    *agg_out = agg;
  }
  return Status::OK();
}

TEST(WalRecoveryTest, DurableLifecycleRoundTripVerifies) {
  std::string root = FreshDir("lifecycle");
  ObjectId agg = storage::kInvalidObjectId;
  auto durable = OpenDurableTrackedDatabase(Env::Default(), root);
  ASSERT_TRUE(durable.ok()) << durable.status().ToString();
  TrackedDatabase& db = *durable->db;
  ASSERT_TRUE(RunWorkload(db, &agg).ok());

  WalRecoveryReport report;
  auto restored = RecoverOneShard(Env::Default(), root, &report);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(restored->record_count(), db.provenance().record_count());

  // A bundle built from the recovered store + a live snapshot verifies.
  RecipientBundle bundle;
  bundle.subject = agg;
  bundle.data = *SubtreeSnapshot::Capture(db.tree(), agg);
  bundle.records = *restored->shard(0).ExtractProvenance(agg);
  ProvenanceVerifier verifier(&TestPki::Instance().registry());
  auto verdict = verifier.Verify(bundle);
  EXPECT_TRUE(verdict.ok()) << verdict.ToString();

  // And the whole recovered store audits clean against the live tree.
  auto audit = verifier.Audit(restored->OpenSnapshot(), db.tree());
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

TEST(WalRecoveryTest, EveryOperationIsDurableWhenItReturns) {
  // An operation returns only after its records are fsynced: a power cut
  // right after any operation loses none of them.
  std::string root = FreshDir("per_op");
  FaultInjectionEnv env(Env::Default());
  auto durable = OpenDurableTrackedDatabase(&env, root);
  ASSERT_TRUE(durable.ok()) << durable.status().ToString();
  const ProvenanceStore& live = durable->db->provenance();
  size_t checked = 0;
  auto power_cut_and_recover = [&] {
    ++checked;
    ASSERT_TRUE(env.DropUnsyncedFileData().ok());
    WalRecoveryReport report;
    auto restored = RecoverOneShard(&env, root, &report);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_TRUE(report.clean()) << report.detail;
    // Every record any operation emitted so far, not only the committed
    // ones: nothing an operation emitted is still pending when it returns.
    ASSERT_EQ(restored->record_count(), durable->pipeline->submitted())
        << "records lost to a power cut after operation " << checked;
    ASSERT_EQ(live.record_count(), durable->pipeline->submitted());
    for (uint64_t i = 0; i < live.record_count(); ++i) {
      EXPECT_EQ(EncodeRecord(restored->shard(0).record(i)),
                EncodeRecord(live.record(i)))
          << "record " << i << " after operation " << checked;
    }
  };
  ASSERT_TRUE(RunWorkload(*durable->db, nullptr, power_cut_and_recover).ok());
  EXPECT_EQ(checked, 6u);
}

TEST(WalRecoveryTest, FailedWalAppendLeavesStoreUnchanged) {
  // The write-ahead contract: if the log cannot take the record, the
  // in-memory store must not either (no divergence from disk).
  std::string root = FreshDir("rejected");
  FaultInjectionEnv env(Env::Default());
  auto durable = OpenDurableTrackedDatabase(&env, root);
  ASSERT_TRUE(durable.ok()) << durable.status().ToString();
  TrackedDatabase& db = *durable->db;
  ASSERT_TRUE(db.Insert(P(1), Value::String("db")).ok());
  uint64_t committed = db.provenance().record_count();

  env.ScheduleAppendFailure(1);
  Status failed = db.Insert(P(1), Value::Int(7)).status();
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(db.provenance().record_count(), committed);
  env.ClearFaults();

  // The failed append poisoned the pipeline: later operations return its
  // status, even once the fault clears, and store nothing.
  Status later = db.Insert(P(1), Value::Int(8)).status();
  EXPECT_EQ(later.code(), failed.code());
  EXPECT_EQ(later.message(), failed.message());
  EXPECT_EQ(db.provenance().record_count(), committed);

  // A primitive runs as a one-primitive complex operation; a refused
  // record closes it, so the next primitive is refused in turn instead
  // of joining it and reporting OK.
  EXPECT_FALSE(db.in_complex_operation());
  Status third = db.Insert(P(1), Value::Int(9)).status();
  EXPECT_EQ(third.code(), failed.code());
  EXPECT_EQ(third.message(), failed.message());
  EXPECT_FALSE(db.in_complex_operation());
  EXPECT_EQ(db.provenance().record_count(), committed);

  // An explicit complex operation closes too when End's record is
  // refused.
  ASSERT_TRUE(db.BeginComplexOperation(P(1)).ok());
  ASSERT_TRUE(db.Insert(P(1), Value::Int(10)).ok());  // deferred to End
  Status ended = db.EndComplexOperation();
  EXPECT_EQ(ended.code(), failed.code());
  EXPECT_EQ(ended.message(), failed.message());
  EXPECT_FALSE(db.in_complex_operation());
  EXPECT_EQ(db.provenance().record_count(), committed);
}

TEST(WalRecoveryTest, PruneSurvivesCrashRecovery) {
  std::string root = FreshDir("prune");
  auto durable = OpenDurableTrackedDatabase(Env::Default(), root);
  ASSERT_TRUE(durable.ok()) << durable.status().ToString();
  TrackedDatabase& db = *durable->db;
  IngestPipeline& pipeline = *durable->pipeline;

  ObjectId solo = *db.Insert(P(1), Value::String("solo"));
  ASSERT_TRUE(db.Update(P(1), solo, Value::String("solo-v2")).ok());
  ObjectId agg = *db.Aggregate(P(2), {solo}, Value::String("agg"));
  ASSERT_TRUE(db.Insert(P(1), Value::Int(7)).ok());  // unrelated survivor
  // Pruning the aggregate releases its input refs, which is what makes
  // pruning `solo` legal — an ordering a replay of appends alone cannot
  // reproduce: it would re-inflate the refs and refuse the second prune.
  ASSERT_TRUE(pipeline.Prune(agg).ok());
  auto dropped = pipeline.Prune(solo);
  ASSERT_TRUE(dropped.ok()) << dropped.status().ToString();
  EXPECT_GT(*dropped, 0u);

  auto restored = RecoverOneShard(Env::Default(), root);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->record_count(), db.provenance().record_count());
  EXPECT_EQ(restored->live_record_count(),
            db.provenance().live_record_count());
  EXPECT_TRUE(restored->shard(0).ChainOf(solo).empty())
      << "prune resurrected";
  EXPECT_TRUE(restored->shard(0).ChainOf(agg).empty())
      << "prune resurrected";
}

/// The paper-grade write path: one-record batches on a sequential
/// pipeline, so a flush, an append and an fsync per record.
IngestOptions SyncEveryRecord() {
  IngestOptions options;
  options.max_batch_records = 1;
  return options;
}

/// One sweep iteration: run the workload against a WAL whose `k`-th file
/// write fails (optionally tearing mid-write), optionally power-cut the
/// machine (dropping unsynced data), then recover and check the two
/// durability invariants: every record appended before a successful
/// Sync survives, and no half-written frame is resurrected.
void CrashAtWrite(uint64_t k, bool torn, bool power_cut) {
  SCOPED_TRACE("crash at write " + std::to_string(k) +
               (torn ? " (torn)" : " (clean)") +
               (power_cut ? " + power cut" : ""));
  std::string root = FreshDir("sweep_" + std::to_string(k) +
                              (torn ? "t" : "c") + (power_cut ? "p" : ""));
  FaultInjectionEnv env(Env::Default());
  env.ScheduleAppendFailure(k, torn);

  auto durable =
      OpenDurableTrackedDatabase(&env, root, SyncEveryRecord());
  uint64_t committed = 0;
  if (durable.ok()) {
    Status crash = RunWorkload(*durable->db);  // expected to die at k
    (void)crash;
    // Every record the store committed was synced before commit.
    committed = durable->db->provenance().record_count();
    EXPECT_EQ(durable->pipeline->shard_wal(0)->synced_records(), committed);
  }

  env.ClearFaults();
  if (power_cut) {
    ASSERT_TRUE(env.DropUnsyncedFileData().ok());
  }

  WalRecoveryReport report;
  auto restored = RecoverOneShard(&env, root, &report);
  ASSERT_TRUE(restored.ok())
      << "crash point must salvage or report, never fail to recover: "
      << restored.status().ToString();
  // Exactly the committed prefix — nothing lost, nothing resurrected.
  EXPECT_EQ(restored->record_count(), committed);
  if (power_cut) {
    // The torn half-frame was never synced, so the power cut erases it:
    // recovery sees a byte-exact log.
    EXPECT_TRUE(report.clean()) << report.detail;
  } else if (torn && k > 1) {
    // Process crash without power cut: the flushed half-frame is still on
    // disk and must be reported as dropped, not silently absorbed.
    EXPECT_GT(report.dropped_bytes, 0u);
  }

  // Second cycle: after the first recovery repaired the tail, a writer
  // restarts on the directory (as the recovered process would) and a
  // later recovery must still be clean. Guards the double-crash case
  // where the crash tore a segment *header* — the remnant must not
  // survive as a headerless segment stranded before the new tail.
  {
    auto restarted = IngestPipeline::Open(&env, root, SyncEveryRecord());
    ASSERT_TRUE(restarted.ok()) << restarted.status().ToString();
    ASSERT_TRUE((*restarted)->Close().ok());
  }
  auto restored2 = RecoverOneShard(&env, root, &report);
  ASSERT_TRUE(restored2.ok())
      << "recovery after restart must stay clean: "
      << restored2.status().ToString();
  EXPECT_TRUE(report.clean()) << report.detail;
  EXPECT_EQ(restored2->record_count(), committed);
}

TEST(WalCrashSweepTest, CrashAtEveryWrite) {
  // Dry run: count every file write the full workload performs (segment
  // header included) so the sweep covers each one.
  uint64_t total_writes = 0;
  {
    FaultInjectionEnv env(Env::Default());
    auto durable = OpenDurableTrackedDatabase(&env, FreshDir("sweep_dry"),
                                              SyncEveryRecord());
    ASSERT_TRUE(durable.ok()) << durable.status().ToString();
    ASSERT_TRUE(RunWorkload(*durable->db).ok());
    ASSERT_TRUE(durable->pipeline->Close().ok());
    total_writes = env.append_count();
  }
  ASSERT_GT(total_writes, 5u) << "workload too small to be a sweep";

  for (uint64_t k = 1; k <= total_writes; ++k) {
    CrashAtWrite(k, /*torn=*/false, /*power_cut=*/false);
    CrashAtWrite(k, /*torn=*/true, /*power_cut=*/false);
    CrashAtWrite(k, /*torn=*/true, /*power_cut=*/true);
  }
}

// ---------------------------------------------------------------------
// Sharded group-commit crash sweep: the batched ingest pipeline under
// fault injection. Invariants from the write-ahead contract:
//   * a record is committed in memory only after its batch is fsynced,
//     so per shard synced_records == committed count at any crash point;
//   * after a power cut, recovery yields *exactly* the committed records
//     (nothing un-fsynced resurrected, nothing durable lost);
//   * without a power cut, recovery yields at least the committed prefix
//     and never anything beyond the golden (crash-free) run;
//   * resuming ingest of the not-yet-durable requests reproduces the
//     golden store byte for byte.
// ---------------------------------------------------------------------

constexpr size_t kSweepShards = 2;

/// How the sweep drives the pipeline.
struct SweepMode {
  IngestOptions options;
  /// When > 0, Drain() after every this many submits, so most
  /// write-aheads cover every shard at once.
  size_t drain_every = 0;
};

/// Sequential signing and threshold flushes only: every write runs on
/// the submitting thread, so the nth fault lands on the same shard in
/// every run.
SweepMode SequentialSweep() {
  SweepMode mode;
  mode.options.num_shards = kSweepShards;
  mode.options.max_batch_records = 3;  // several flushes, each one fsync
  return mode;
}

/// A pool of 4 and a Drain every few submits: the shards' WAL appends
/// and fsyncs overlap on the pool, so which shard takes the nth fault
/// varies from run to run. The checks below hold for either.
SweepMode PooledDrainSweep() {
  SweepMode mode = SequentialSweep();
  mode.options.signing.num_threads = 4;
  mode.drain_every = 4;
  return mode;
}

struct ShardedSweepFixture {
  SweepMode mode;
  /// Prefixes every directory the sweep uses. ctest runs each test in its
  /// own process, in parallel, so no two sweeps may share a directory.
  std::string name;
  std::vector<IngestRequest> requests;
  // Per shard, the EncodeRecord bytes of the crash-free run, in commit
  // order. Per-shard commit order is fully determined by submit order,
  // so any crashed run must be a byte-prefix of this.
  std::array<std::vector<Bytes>, kSweepShards> golden;
  uint64_t total_appends = 0;
  uint64_t total_syncs = 0;
};

std::string FreshIngestRoot(const std::string& tag) {
  std::string root = ::testing::TempDir() + "/provdb_ingest_sweep_" + tag;
  EXPECT_TRUE(WipeIngestRoot(Env::Default(), root).ok());
  return root;
}

/// Builds the seeded workload once, replays it crash-free through a
/// fault-counting env to freeze the golden per-shard record bytes and
/// the append/sync counts the sweeps iterate over.
void BuildShardedSweepFixture(const SweepMode& mode, const std::string& name,
                              ShardedSweepFixture* fx) {
  fx->mode = mode;
  fx->name = name;
  IngestWorkloadBuilder builder;
  DifferentialWorkloadOptions wl;
  wl.num_ops = 30;
  ASSERT_TRUE(RandomDifferentialWorkload(&builder, 0xC4A54u, wl).ok());
  fx->requests = builder.requests();
  ASSERT_GT(fx->requests.size(), 10u);

  FaultInjectionEnv env(Env::Default());
  std::string root = FreshIngestRoot(name + "_golden");
  auto pipeline = IngestPipeline::Open(&env, root, mode.options);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  ASSERT_TRUE(SubmitWithDrainCadence(pipeline->get(), fx->requests,
                                     mode.drain_every)
                  .ok());
  ASSERT_TRUE((*pipeline)->Close().ok());
  const StoreSnapshot snapshot = (*pipeline)->OpenSnapshot();
  for (size_t s = 0; s < kSweepShards; ++s) {
    fx->golden[s] = EncodedInCommitOrder(snapshot.shard_view(s));
    ASSERT_FALSE(fx->golden[s].empty()) << "shard " << s << " never used";
  }
  fx->total_appends = env.append_count();
  fx->total_syncs = env.sync_count();
}

/// One crash cycle: ingest under an injected fault, crash (destroy the
/// pipeline without Close), optionally power-cut, recover, check the
/// durability invariants, then resume the missing suffix and require the
/// end state to equal the golden run.
void RunShardedCrashCycle(const ShardedSweepFixture& fx,
                          const std::function<void(FaultInjectionEnv*)>& arm,
                          bool power_cut, const std::string& tag) {
  std::string root = FreshIngestRoot(fx.name + "_" + tag);
  FaultInjectionEnv env(Env::Default());
  arm(&env);

  std::array<uint64_t, kSweepShards> committed{};
  {
    auto pipeline = IngestPipeline::Open(&env, root, fx.mode.options);
    if (pipeline.ok()) {
      // Expected to stop at the injected fault, poisoning the pipeline.
      Status crash = SubmitWithDrainCadence(pipeline->get(), fx.requests,
                                            fx.mode.drain_every);
      // A pipelined Submit may return with a write-ahead in flight; the
      // Drain resolves it, so the checks below read a quiescent pipeline.
      if (crash.ok()) crash = (*pipeline)->Drain();
      (void)crash;
      const StoreSnapshot snapshot = (*pipeline)->OpenSnapshot();
      for (size_t s = 0; s < kSweepShards; ++s) {
        committed[s] = snapshot.shard_view(s).record_count();
        const WalWriter* wal = (*pipeline)->shard_wal(s);
        ASSERT_NE(wal, nullptr);
        // The write-ahead contract under group commit: nothing commits
        // in memory before its batch hit fsync.
        EXPECT_EQ(wal->synced_records(), committed[s]);
      }
    }
    // Scope exit without Close(): the crash.
  }

  env.ClearFaults();
  if (power_cut) {
    ASSERT_TRUE(env.DropUnsyncedFileData().ok());
  }

  std::vector<WalRecoveryReport> reports;
  auto recovered =
      ShardedProvenanceStore::Recover(&env, root, kSweepShards, &reports);
  ASSERT_TRUE(recovered.ok())
      << "crash point must salvage or report, never fail to recover: "
      << recovered.status().ToString();
  std::array<uint64_t, kSweepShards> durable{};
  for (size_t s = 0; s < kSweepShards; ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    const ProvenanceStore& shard = recovered->shard(s);
    durable[s] = shard.record_count();
    if (power_cut) {
      // A power cut erases everything un-fsynced: recovery must see
      // exactly the committed records — no resurrection, no loss.
      EXPECT_EQ(durable[s], committed[s]);
    } else {
      // A process crash leaves OS-buffered appends on disk; recovery may
      // keep them, but never less than what was committed durable.
      EXPECT_GE(durable[s], committed[s]);
    }
    ASSERT_LE(durable[s], fx.golden[s].size());
    for (uint64_t i = 0; i < durable[s]; ++i) {
      EXPECT_EQ(EncodeRecord(shard.record(i)), fx.golden[s][i])
          << "recovered record " << i << " diverged from the golden run";
    }
  }

  // Resume: a fresh pipeline recovers the shard tails and ingests every
  // request that is not yet durable. The result must be byte-identical
  // to never having crashed (chains continue from recovered tails).
  {
    auto pipeline = IngestPipeline::Open(&env, root, fx.mode.options);
    ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
    std::array<uint64_t, kSweepShards> seen{};
    for (const IngestRequest& request : fx.requests) {
      const size_t s = ShardIndex(request.object, kSweepShards);
      if (seen[s]++ < durable[s]) continue;  // already recovered
      ASSERT_TRUE((*pipeline)->Submit(request).ok());
    }
    ASSERT_TRUE((*pipeline)->Close().ok());
    const StoreSnapshot snapshot = (*pipeline)->OpenSnapshot();
    for (size_t s = 0; s < kSweepShards; ++s) {
      SCOPED_TRACE("shard " + std::to_string(s) + " after resume");
      EXPECT_EQ(EncodedInCommitOrder(snapshot.shard_view(s)), fx.golden[s]);
    }
  }
}

void SweepEveryAppend(const SweepMode& mode, const std::string& name) {
  ShardedSweepFixture fx;
  BuildShardedSweepFixture(mode, name, &fx);
  if (::testing::Test::HasFatalFailure()) return;
  ASSERT_GT(fx.total_appends, 10u) << "workload too small to be a sweep";

  // Small k crashes the shard WAL *header* writes during Open — the
  // mid-shard-directory-creation case — before any record lands.
  for (uint64_t k = 1; k <= fx.total_appends; ++k) {
    for (bool torn : {false, true}) {
      for (bool power_cut : {false, true}) {
        SCOPED_TRACE("append " + std::to_string(k) +
                     (torn ? " torn" : " clean") +
                     (power_cut ? " + power cut" : ""));
        RunShardedCrashCycle(
            fx,
            [k, torn](FaultInjectionEnv* env) {
              env->ScheduleAppendFailure(k, torn);
            },
            power_cut,
            "a" + std::to_string(k) + (torn ? "t" : "c") +
                (power_cut ? "p" : ""));
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

void SweepEveryBatchFsync(const SweepMode& mode, const std::string& name) {
  ShardedSweepFixture fx;
  BuildShardedSweepFixture(mode, name, &fx);
  if (::testing::Test::HasFatalFailure()) return;
  ASSERT_GT(fx.total_syncs, 4u) << "not enough batches to sweep";

  // Failing the n-th fsync kills a whole batch at its durability point:
  // none of that batch's records may commit, and after a power cut none
  // may survive on disk.
  for (uint64_t n = 1; n <= fx.total_syncs; ++n) {
    for (bool power_cut : {false, true}) {
      SCOPED_TRACE("sync " + std::to_string(n) +
                   (power_cut ? " + power cut" : ""));
      RunShardedCrashCycle(
          fx,
          [n](FaultInjectionEnv* env) { env->ScheduleSyncFailure(n); },
          power_cut, "s" + std::to_string(n) + (power_cut ? "p" : ""));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(ShardedIngestCrashSweepTest, CrashAtEveryAppend) {
  SweepEveryAppend(SequentialSweep(), "seq_append");
}

TEST(ShardedIngestCrashSweepTest, CrashAtEveryBatchFsync) {
  SweepEveryBatchFsync(SequentialSweep(), "seq_fsync");
}

TEST(ShardedIngestCrashSweepTest, PooledDrainsCrashAtEveryAppend) {
  SweepEveryAppend(PooledDrainSweep(), "pooled_append");
}

TEST(ShardedIngestCrashSweepTest, PooledDrainsCrashAtEveryBatchFsync) {
  SweepEveryBatchFsync(PooledDrainSweep(), "pooled_fsync");
}

}  // namespace
}  // namespace provdb::provenance
