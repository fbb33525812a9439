// Integration check for the observability layer: one workload that
// touches every instrumented subsystem (checksum signing, subtree
// hashing, WAL append/sync/recovery, verification, auditing, the thread
// pool) must populate the global registry, and every instrument name the
// process ever registers must be documented in docs/OBSERVABILITY.md —
// the same invariant tools/check_metrics_docs.sh enforces statically in
// CI, pinned here dynamically against the real registry.

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "observability/metrics.h"
#include "provenance/tracked_database.h"
#include "provenance/verifier.h"
#include "storage/env.h"
#include "storage/wal.h"
#include "testing/test_pki.h"

namespace provdb::observability {
namespace {

using provdb::testing::TestPki;
using storage::ObjectId;
using storage::Value;

uint64_t CounterValue(const MetricsSnapshot& snap, const std::string& name) {
  for (const auto& [counter_name, value] : snap.counters) {
    if (counter_name == name) return value;
  }
  ADD_FAILURE() << "counter " << name << " not registered";
  return 0;
}

const HistogramSnapshot* FindHistogram(const MetricsSnapshot& snap,
                                       const std::string& name) {
  for (const HistogramSnapshot& h : snap.histograms) {
    if (h.name == name) return &h;
  }
  ADD_FAILURE() << "histogram " << name << " not registered";
  return nullptr;
}

class StatsSnapshotTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    GlobalMetrics().Reset();

    const crypto::Participant& p1 = TestPki::Instance().participant(0);
    const crypto::Participant& p2 = TestPki::Instance().participant(1);
    // Per-process directory: ctest runs each TEST_F as its own process,
    // concurrently, and each process replays this suite setup. A shared
    // path would race; stale segments would skew the recovery counts.
    std::string dir = ::testing::TempDir() + "/stats_snapshot_wal." +
                      std::to_string(::getpid());
    std::filesystem::remove_all(dir);

    auto pipeline = provenance::IngestPipeline::Open(
        storage::Env::Default(), dir, provenance::IngestOptions());
    ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
    auto tracked = provenance::TrackedDatabase::Open(pipeline->get());
    ASSERT_TRUE(tracked.ok()) << tracked.status().ToString();
    provenance::TrackedDatabase& db = **tracked;

    auto a = db.Insert(p1, Value::Int(1));
    auto b = db.Insert(p1, Value::Int(2));
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_TRUE(db.Update(p2, *a, Value::Int(3)).ok());
    auto agg = db.Aggregate(p2, {*a, *b}, Value::String("agg"));
    ASSERT_TRUE(agg.ok());

    auto bundle = db.ExportForRecipient(*agg);
    ASSERT_TRUE(bundle.ok());
    provenance::ProvenanceVerifier verifier(&TestPki::Instance().registry());
    EXPECT_TRUE(verifier.Verify(*bundle).ok());

    provenance::ProvenanceVerifier auditor(&TestPki::Instance().registry(),
                                           crypto::HashAlgorithm::kSha1,
                                           ParallelismConfig{4});
    EXPECT_TRUE(auditor.Audit(db.OpenSnapshot(), db.tree()).ok());

    std::vector<storage::WalRecoveryReport> reports;
    auto restored = provenance::ShardedProvenanceStore::Recover(
        storage::Env::Default(), dir, 1, &reports);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_TRUE(reports[0].clean());
    std::filesystem::remove_all(dir);
  }
};

TEST_F(StatsSnapshotTest, WorkloadPopulatesEverySubsystem) {
  MetricsSnapshot snap = GlobalMetrics().Snapshot();

  // Checksums: 2 inserts + 1 explicit update (+ inherited copies) + 1
  // aggregate were all signed.
  EXPECT_GT(CounterValue(snap, "checksum.payload.insert"), 0u);
  EXPECT_GT(CounterValue(snap, "checksum.payload.update"), 0u);
  EXPECT_GT(CounterValue(snap, "checksum.payload.aggregate"), 0u);
  EXPECT_GT(CounterValue(snap, "checksum.sign.count"), 0u);

  // Hashing, WAL persistence, recovery.
  EXPECT_GT(CounterValue(snap, "hash.nodes_hashed"), 0u);
  EXPECT_GT(CounterValue(snap, "wal.appends"), 0u);
  EXPECT_GT(CounterValue(snap, "wal.append_bytes"), 0u);
  EXPECT_GT(CounterValue(snap, "wal.syncs"), 0u);
  EXPECT_EQ(CounterValue(snap, "wal.recovery.records"),
            CounterValue(snap, "wal.appends"));
  EXPECT_EQ(CounterValue(snap, "wal.recovery.salvages"), 0u);

  // Verification: one bundle verify plus the audit's chain sweep; the
  // clean workload has issues == 0 but signatures and records > 0.
  EXPECT_GT(CounterValue(snap, "verify.runs"), 0u);
  EXPECT_GT(CounterValue(snap, "verify.chains"), 0u);
  EXPECT_GT(CounterValue(snap, "verify.records"), 0u);
  EXPECT_GT(CounterValue(snap, "verify.signatures.ok"), 0u);
  EXPECT_EQ(CounterValue(snap, "verify.signatures.bad"), 0u);
  EXPECT_EQ(CounterValue(snap, "verify.issues"), 0u);

  // Audit sweep (ran with a 4-thread pool, so the pool worked too).
  EXPECT_GT(CounterValue(snap, "audit.runs"), 0u);
  EXPECT_GT(CounterValue(snap, "audit.live_checks"), 0u);
  EXPECT_EQ(CounterValue(snap, "audit.issues"), 0u);
  EXPECT_GT(CounterValue(snap, "threadpool.tasks"), 0u);

  // Latency histograms saw the same operations.
  const HistogramSnapshot* sign = FindHistogram(snap, "checksum.sign.latency_us");
  ASSERT_NE(sign, nullptr);
  EXPECT_EQ(sign->count, CounterValue(snap, "checksum.sign.count"));
  const HistogramSnapshot* sync = FindHistogram(snap, "wal.sync.latency_us");
  ASSERT_NE(sync, nullptr);
  EXPECT_EQ(sync->count, CounterValue(snap, "wal.syncs"));
}

TEST_F(StatsSnapshotTest, SnapshotJsonContainsDocumentedNames) {
  std::string json = GlobalMetrics().SnapshotJson();
  for (const char* name :
       {"checksum.sign.count", "hash.nodes_hashed", "wal.appends",
        "verify.records", "audit.runs", "threadpool.tasks",
        "wal.sync.latency_us"}) {
    EXPECT_NE(json.find(std::string("\"") + name + "\""), std::string::npos)
        << name << " missing from SnapshotJson";
  }
}

// Every instrument this process registered must appear (backticked) in
// docs/OBSERVABILITY.md — the dynamic version of the CI docs cross-check.
TEST_F(StatsSnapshotTest, EveryRegisteredNameIsDocumented) {
  std::ifstream docs(std::string(PROVDB_REPO_ROOT) +
                     "/docs/OBSERVABILITY.md");
  ASSERT_TRUE(docs.is_open()) << "docs/OBSERVABILITY.md not found";
  std::stringstream buffer;
  buffer << docs.rdbuf();
  std::string doc_text = buffer.str();

  MetricsSnapshot snap = GlobalMetrics().Snapshot();
  auto check = [&](const std::string& name) {
    EXPECT_NE(doc_text.find("`" + name + "`"), std::string::npos)
        << "metric " << name
        << " is registered in src/ but undocumented in docs/OBSERVABILITY.md";
  };
  for (const auto& [name, value] : snap.counters) check(name);
  for (const auto& [name, value] : snap.gauges) check(name);
  for (const HistogramSnapshot& h : snap.histograms) check(h.name);
}

}  // namespace
}  // namespace provdb::observability
