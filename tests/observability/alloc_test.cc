// Pins the zero-allocation guarantee of the observability hot path: once
// an instrument is registered, recording into it — and constructing
// disabled TraceSpans — must never touch the heap. The pin is a global
// operator new/delete override counting every allocation, which is why
// this file lives in its own test binary (observability_alloc_test): the
// override is process-wide and would distort other suites. The binary's
// other file, alloc_paths_test.cc, pins allocations per record on the
// paths that fill a provenance store.

#include <atomic>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "common/epoch.h"
#include "observability/metrics.h"
#include "observability/trace.h"
#include "provenance/provenance_store.h"
#include "provenance/tracked_database.h"
#include "testing/test_pki.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

}  // namespace

// Also read by alloc_paths_test.cc, the other file of this binary.
uint64_t AllocationCount() {
  return g_allocations.load(std::memory_order_relaxed);
}

void* operator new(size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace provdb::observability {
namespace {

TEST(AllocTest, RecordingAllocatesNothing) {
  MetricsRegistry registry;
  // Registration may allocate — it happens once, at construction time.
  Counter* c = registry.counter("alloc.counter");
  Gauge* g = registry.gauge("alloc.gauge");
  Histogram* h = registry.histogram("alloc.hist");

  uint64_t before = AllocationCount();
  for (int i = 0; i < 1000; ++i) {
    c->Increment();
    c->Add(3);
    g->Set(i);
    g->Add(1);
    h->Record(static_cast<uint64_t>(i));
    ScopedLatencyTimer timer(h);
  }
  EXPECT_EQ(AllocationCount(), before);
}

TEST(AllocTest, DisabledRecordingAllocatesNothing) {
  MetricsRegistry registry;
  Counter* c = registry.counter("alloc.counter");
  Histogram* h = registry.histogram("alloc.hist");
  registry.set_enabled(false);

  uint64_t before = AllocationCount();
  for (int i = 0; i < 1000; ++i) {
    c->Increment();
    h->Record(static_cast<uint64_t>(i));
    ScopedLatencyTimer timer(h);
  }
  EXPECT_EQ(AllocationCount(), before);
}

TEST(AllocTest, DisabledTraceSpansAllocateNothing) {
  ASSERT_FALSE(TraceSink::enabled());
  uint64_t before = AllocationCount();
  for (int i = 0; i < 1000; ++i) {
    TraceSpan span("alloc.span");
  }
  EXPECT_EQ(AllocationCount(), before);
}

// The record-insert path itself allocates (payloads, records) — the pin
// is that its allocation count is *identical* with metrics enabled and
// disabled, i.e. the instrumentation contributes zero allocations.
TEST(AllocTest, InsertPathAllocationsUnchangedByMetrics) {
  using provdb::testing::TestPki;
  const crypto::Participant& p = TestPki::Instance().participant(0);

  auto count_inserts = [&](bool metrics_enabled) {
    GlobalMetrics().set_enabled(metrics_enabled);
    provenance::TrackedDatabase db;
    // Warm up allocators / lazily-built state outside the window.
    EXPECT_TRUE(db.Insert(p, storage::Value::Int(0)).ok());
    uint64_t before = AllocationCount();
    for (int i = 1; i <= 50; ++i) {
      EXPECT_TRUE(db.Insert(p, storage::Value::Int(i)).ok());
    }
    GlobalMetrics().set_enabled(true);
    return AllocationCount() - before;
  };

  uint64_t with_metrics = count_inserts(true);
  uint64_t without_metrics = count_inserts(false);
  EXPECT_EQ(with_metrics, without_metrics);
  EXPECT_GT(with_metrics, 0u);  // sanity: the pin is actually measuring
}

// The snapshot-publish hook sits inside the ingest group-commit critical
// section, so PublishSnapshot() must never allocate: the version skeleton
// is preallocated by the mutation that dirtied the store (MarkDirty), and
// publish itself is POD fills + one atomic store + one intrusive retire +
// one epoch advance (DESIGN.md §16).
TEST(AllocTest, SnapshotPublishHookAllocatesNothing) {
  using provenance::ObjectState;
  using provenance::OperationType;
  using provenance::ProvenanceRecord;
  using provenance::ProvenanceStore;

  auto record = [](storage::ObjectId object, provenance::SeqId seq) {
    ProvenanceRecord rec;
    rec.seq_id = seq;
    rec.participant = 1;
    rec.op = OperationType::kInsert;
    rec.output = ObjectState{
        object, crypto::Digest::FromBytes(Bytes(20, uint8_t(seq + 1)))};
    rec.checksum = Bytes(128, uint8_t(seq + 1));
    return rec;
  };

  EpochDomain domain;
  ProvenanceStore store(domain);
  // Warm up: first mutation + publish build the initial version chain.
  ASSERT_TRUE(store.AddRecord(record(1, 0)).ok());
  store.PublishSnapshot();

  for (provenance::SeqId seq = 1; seq <= 50; ++seq) {
    // The mutation may allocate (records, trie path copies, the next
    // spare version); the publish point itself must not.
    ASSERT_TRUE(store.AddRecord(record(seq + 1, 0)).ok());
    uint64_t before = AllocationCount();
    store.PublishSnapshot();
    EXPECT_EQ(AllocationCount(), before);
    // Re-publishing with nothing dirty is a no-op and equally clean.
    store.PublishSnapshot();
    EXPECT_EQ(AllocationCount(), before);
  }
  // Reclaiming the retired backlog is intrusive list surgery — deletes
  // only, no news.
  domain.Advance();
  uint64_t before = AllocationCount();
  EXPECT_GT(domain.Collect(), 0u);
  EXPECT_EQ(AllocationCount(), before);
}

}  // namespace
}  // namespace provdb::observability
