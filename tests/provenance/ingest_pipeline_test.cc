// Unit tests for the sharded batched ingest pipeline: request signing
// semantics, shard routing, group-commit batching, write-ahead ordering
// under fault injection, reopen/recovery, and sequential-vs-parallel
// signing equivalence.

#include "provenance/ingest_pipeline.h"

#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/hashmix.h"
#include "common/thread_pool.h"
#include "observability/metrics.h"
#include "provenance/serialization.h"
#include "provenance/verifier.h"
#include "storage/fault_injection_env.h"
#include "testing/differential.h"
#include "testing/test_pki.h"

namespace provdb::provenance {
namespace {

using provdb::testing::IngestWorkloadBuilder;
using provdb::testing::ReplayThroughPipeline;
using provdb::testing::SortByObjectAndSeq;
using provdb::testing::TestPki;
using storage::Env;
using storage::FaultInjectionEnv;
using storage::ObjectId;

const crypto::Participant& P(size_t i) {
  return TestPki::Instance().participant(i);
}

crypto::Digest D(uint8_t tag) {
  Bytes b(20, tag);
  return crypto::Digest::FromBytes(ByteView(b.data(), b.size()));
}

std::string FreshDir(const std::string& tag) {
  std::string root = ::testing::TempDir() + "/provdb_ingest_" + tag;
  // Shard directories survive across runs; start from scratch.
  auto shards = Env::Default()->ListDir(root);
  if (shards.ok()) {
    for (const std::string& shard : *shards) {
      auto files = Env::Default()->ListDir(root + "/" + shard);
      if (!files.ok()) continue;
      for (const std::string& f : *files) {
        EXPECT_TRUE(
            Env::Default()->RemoveFile(root + "/" + shard + "/" + f).ok());
      }
    }
  }
  return root;
}

IngestRequest Insert(ObjectId id, uint8_t tag, size_t p = 0) {
  IngestRequest r;
  r.op = OperationType::kInsert;
  r.object = id;
  r.post_hash = D(tag);
  r.participant = &P(p);
  return r;
}

IngestRequest Update(ObjectId id, uint8_t pre, uint8_t post, size_t p = 0) {
  IngestRequest r;
  r.op = OperationType::kUpdate;
  r.object = id;
  r.has_pre_hash = true;
  r.pre_hash = D(pre);
  r.post_hash = D(post);
  r.participant = &P(p);
  return r;
}

/// Aggregate of one untracked-looking input (empty prev checksum) into
/// `id`, carrying the producer-computed `seq`.
IngestRequest Aggregate(ObjectId id, ObjectId input, uint8_t tag, SeqId seq) {
  IngestRequest r;
  r.op = OperationType::kAggregate;
  r.object = id;
  r.post_hash = D(tag);
  r.inputs = {ObjectState{input, D(static_cast<uint8_t>(tag + 1))}};
  r.input_prev_checksums = {Bytes{}};
  r.aggregate_seq = seq;
  r.participant = &P(0);
  return r;
}

// ---------------------------------------------------------------------------
// BuildSignedIngestRecord
// ---------------------------------------------------------------------------

TEST(BuildSignedIngestRecordTest, InsertStartsChainAtZero) {
  ChecksumEngine engine;
  auto rec = BuildSignedIngestRecord(engine, {}, Insert(7, 0xA1));
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->seq_id, 0u);
  EXPECT_EQ(rec->op, OperationType::kInsert);
  EXPECT_TRUE(rec->inputs.empty());
  EXPECT_FALSE(rec->checksum.empty());
}

TEST(BuildSignedIngestRecordTest, InsertIntoExistingChainRejected) {
  ChecksumEngine engine;
  LocalChainState::Tail tail{0, Bytes{1, 2, 3}, true};
  EXPECT_EQ(BuildSignedIngestRecord(engine, tail, Insert(7, 0xA1))
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST(BuildSignedIngestRecordTest, UpdateContinuesAndBootstraps) {
  ChecksumEngine engine;
  // Bootstrap: no chain yet -> seq 0.
  auto first = BuildSignedIngestRecord(engine, {}, Update(7, 0xA1, 0xA2));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->seq_id, 0u);
  ASSERT_EQ(first->inputs.size(), 1u);
  EXPECT_EQ(first->inputs[0].object_id, 7u);
  // Continuation: tail at seq 4 -> seq 5.
  LocalChainState::Tail tail{4, first->checksum, true};
  auto next = BuildSignedIngestRecord(engine, tail, Update(7, 0xA2, 0xA3));
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->seq_id, 5u);
}

TEST(BuildSignedIngestRecordTest, AggregateValidatesInputs) {
  ChecksumEngine engine;
  IngestRequest agg;
  agg.op = OperationType::kAggregate;
  agg.object = 9;
  agg.post_hash = D(0xC1);
  agg.participant = &P(0);
  agg.inputs = {ObjectState{3, D(0x31)}, ObjectState{2, D(0x21)}};
  agg.input_prev_checksums = {Bytes{}, Bytes{}};
  agg.aggregate_seq = 1;
  // Descending inputs violate the global total order.
  EXPECT_EQ(BuildSignedIngestRecord(engine, {}, agg).status().code(),
            StatusCode::kInvalidArgument);
  std::swap(agg.inputs[0], agg.inputs[1]);
  auto rec = BuildSignedIngestRecord(engine, {}, agg);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->seq_id, 1u);
  EXPECT_EQ(rec->inputs.size(), 2u);
}

TEST(BuildSignedIngestRecordTest, NonAggregateWithInputsRejected) {
  ChecksumEngine engine;
  IngestRequest bad = Insert(7, 0xA1);
  bad.inputs.push_back(ObjectState{1, D(0x11)});
  EXPECT_EQ(BuildSignedIngestRecord(engine, {}, bad).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// ShardedProvenanceStore
// ---------------------------------------------------------------------------

TEST(ShardedProvenanceStoreTest, ShardOfIsStableAndInRange) {
  for (ObjectId id = 1; id <= 200; ++id) {
    size_t s = ShardIndex(id, 4);
    EXPECT_LT(s, 4u);
    EXPECT_EQ(s, ShardIndex(id, 4)) << id;
  }
  // One shard degenerates to everything-in-shard-0.
  EXPECT_EQ(ShardIndex(12345, 1), 0u);
}

TEST(ShardedProvenanceStoreTest, ShardDirNamesAreZeroPadded) {
  EXPECT_EQ(ShardedProvenanceStore::ShardDirName("/w", 0), "/w/shard-000");
  EXPECT_EQ(ShardedProvenanceStore::ShardDirName("/w", 12), "/w/shard-012");
}

// ---------------------------------------------------------------------------
// IngestPipeline
// ---------------------------------------------------------------------------

TEST(IngestPipelineTest, RoutesObjectsToTheirShardAndVerifies) {
  std::string root = FreshDir("route");
  IngestOptions options;
  options.num_shards = 4;
  options.max_batch_records = 8;
  auto pipeline = IngestPipeline::Open(Env::Default(), root, options);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();

  std::vector<ObjectId> ids = {11, 12, 13, 14, 15, 16};
  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_TRUE(
        (*pipeline)->Submit(Insert(ids[i], static_cast<uint8_t>(i))).ok());
    ASSERT_TRUE((*pipeline)
                    ->Submit(Update(ids[i], static_cast<uint8_t>(i),
                                    static_cast<uint8_t>(i + 100)))
                    .ok());
  }
  ASSERT_TRUE((*pipeline)->Drain().ok());
  EXPECT_EQ((*pipeline)->committed(), ids.size() * 2);

  const StoreSnapshot snapshot = (*pipeline)->OpenSnapshot();
  EXPECT_EQ(snapshot.record_count(), ids.size() * 2);
  for (ObjectId id : ids) {
    size_t s = ShardIndex(id, 4);
    EXPECT_EQ(snapshot.shard_view(s).ChainRecords(id).size(), 2u);
    EXPECT_EQ(snapshot.ChainRecords(id).size(), 2u);
  }
  auto report = ProvenanceVerifier(&TestPki::Instance().registry())
                    .VerifyStore(snapshot);
  EXPECT_TRUE(report.ok()) << report.ToString();
  ASSERT_TRUE((*pipeline)->Close().ok());
}

TEST(IngestPipelineTest, GroupCommitDefersDurabilityAndCommitUntilFlush) {
  std::string root = FreshDir("batch");
  IngestOptions options;
  options.num_shards = 1;
  options.max_batch_records = 4;
  auto pipeline = IngestPipeline::Open(Env::Default(), root, options);
  ASSERT_TRUE(pipeline.ok());

  // Three submits: below the batch threshold, so nothing is committed
  // (write-ahead: commit only after the batch's fsync).
  ASSERT_TRUE((*pipeline)->Submit(Insert(1, 0x01)).ok());
  ASSERT_TRUE((*pipeline)->Submit(Insert(2, 0x02)).ok());
  ASSERT_TRUE((*pipeline)->Submit(Insert(3, 0x03)).ok());
  EXPECT_EQ((*pipeline)->OpenSnapshot().record_count(), 0u);
  EXPECT_EQ((*pipeline)->shard_wal(0)->appended_records(), 0u);

  // The fourth submit fills the batch: one flush, one durability point.
  uint64_t syncs_before = (*pipeline)->shard_wal(0)->synced_records();
  ASSERT_TRUE((*pipeline)->Submit(Insert(4, 0x04)).ok());
  EXPECT_EQ((*pipeline)->OpenSnapshot().record_count(), 4u);
  EXPECT_EQ((*pipeline)->shard_wal(0)->synced_records(), syncs_before + 4);
  ASSERT_TRUE((*pipeline)->Close().ok());
}

TEST(IngestPipelineTest, SyncEveryRecordCommitsImmediately) {
  std::string root = FreshDir("synceach");
  IngestOptions options;
  options.num_shards = 1;
  options.max_batch_records = 1;
  auto pipeline = IngestPipeline::Open(Env::Default(), root, options);
  ASSERT_TRUE(pipeline.ok());
  ASSERT_TRUE((*pipeline)->Submit(Insert(1, 0x01)).ok());
  EXPECT_EQ((*pipeline)->OpenSnapshot().record_count(), 1u);
  EXPECT_EQ((*pipeline)->shard_wal(0)->synced_records(), 1u);
  ASSERT_TRUE((*pipeline)->Close().ok());
}

// One-record batches (max_batch_records = 1) fsync every record only in a
// sequential pipeline: one wal.syncs per record, plus Close's. A pooled
// pipeline joins every signed one-record batch into the next write-ahead,
// so an fsync may cover several records; the in-flight bound of
// 2 x num_shards x max_batch_records still caps that at two here.
TEST(IngestPipelineTest, OneRecordBatchesSyncPerRecordOnlyWhenSequential) {
  observability::Counter* syncs =
      observability::GlobalMetrics().counter("wal.syncs");
  constexpr uint64_t kRecords = 40;
  auto count_syncs = [&](int threads, const std::string& tag) -> uint64_t {
    IngestOptions options;
    options.num_shards = 1;
    options.max_batch_records = 1;
    options.signing.num_threads = threads;
    auto pipeline =
        IngestPipeline::Open(Env::Default(), FreshDir(tag), options);
    EXPECT_TRUE(pipeline.ok()) << pipeline.status().ToString();
    if (!pipeline.ok()) return 0;
    const uint64_t before = syncs->value();
    for (ObjectId id = 1; id <= kRecords; ++id) {
      EXPECT_TRUE(
          (*pipeline)->Submit(Insert(id, static_cast<uint8_t>(id))).ok());
    }
    EXPECT_TRUE((*pipeline)->Close().ok());
    EXPECT_EQ((*pipeline)->OpenSnapshot().record_count(), kRecords);
    return syncs->value() - before;
  };

  EXPECT_EQ(count_syncs(1, "batch1_seq"), kRecords + 1);
  const uint64_t pooled = count_syncs(4, "batch1_pool");
  EXPECT_GE(pooled, kRecords / 2);
  EXPECT_LE(pooled, kRecords + 1);
}

TEST(IngestPipelineTest, ReopenContinuesChainsFromRecoveredTails) {
  std::string root = FreshDir("reopen");
  IngestOptions options;
  options.num_shards = 2;
  options.max_batch_records = 3;
  {
    auto pipeline = IngestPipeline::Open(Env::Default(), root, options);
    ASSERT_TRUE(pipeline.ok());
    ASSERT_TRUE((*pipeline)->Submit(Insert(21, 0x01)).ok());
    ASSERT_TRUE((*pipeline)->Submit(Insert(22, 0x02)).ok());
    ASSERT_TRUE((*pipeline)->Close().ok());
  }
  {
    std::vector<storage::WalRecoveryReport> reports;
    auto pipeline =
        IngestPipeline::Open(Env::Default(), root, options, &reports);
    ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
    EXPECT_EQ(reports.size(), 2u);
    EXPECT_EQ((*pipeline)->OpenSnapshot().record_count(), 2u);
    // Chain continuation across restart: the update must get seq 1 and
    // link against the recovered checksum.
    ASSERT_TRUE((*pipeline)->Submit(Update(21, 0x01, 0x11)).ok());
    ASSERT_TRUE((*pipeline)->Submit(Update(22, 0x02, 0x12)).ok());
    ASSERT_TRUE((*pipeline)->Close().ok());
    auto report = ProvenanceVerifier(&TestPki::Instance().registry())
                      .VerifyStore((*pipeline)->OpenSnapshot());
    EXPECT_TRUE(report.ok()) << report.ToString();
  }
  auto recovered =
      ShardedProvenanceStore::Recover(Env::Default(), root, 2);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const StoreSnapshot snapshot = recovered->OpenSnapshot();
  EXPECT_EQ(snapshot.record_count(), 4u);
  EXPECT_EQ(snapshot.ChainRecords(21).back()->seq_id, 1u);
  auto report = ProvenanceVerifier(&TestPki::Instance().registry())
                    .VerifyStore(snapshot);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

/// Writes 16 objects over 4 shards at `root` and closes the pipeline.
void WriteFourShardStore(const std::string& root) {
  IngestOptions options;
  options.num_shards = 4;
  auto pipeline = IngestPipeline::Open(Env::Default(), root, options);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  for (ObjectId id = 1; id <= 16; ++id) {
    ASSERT_TRUE(
        (*pipeline)->Submit(Insert(id, static_cast<uint8_t>(id))).ok());
  }
  ASSERT_TRUE((*pipeline)->Close().ok());
  const StoreSnapshot snapshot = (*pipeline)->OpenSnapshot();
  for (size_t s = 0; s < 4; ++s) {
    ASSERT_GT(snapshot.shard_view(s).record_count(), 0u) << "shard " << s;
  }
}

/// Reopening `root` with `shards` is refused, through Open and Recover
/// alike, and the root still recovers whole with its own 4 shards.
void ExpectReopenWithShardsRefused(const std::string& root, size_t shards) {
  IngestOptions options;
  options.num_shards = shards;
  auto pipeline = IngestPipeline::Open(Env::Default(), root, options);
  EXPECT_EQ(pipeline.status().code(), StatusCode::kFailedPrecondition)
      << pipeline.status().ToString();
  auto recovered =
      ShardedProvenanceStore::Recover(Env::Default(), root, shards);
  EXPECT_EQ(recovered.status().code(), StatusCode::kFailedPrecondition)
      << recovered.status().ToString();
  auto whole = ShardedProvenanceStore::Recover(Env::Default(), root, 4);
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  EXPECT_EQ(whole->record_count(), 16u);
}

// With 2 shards, shard-002 and shard-003 would go unread: their records
// would be lost, and their objects would accept a second insert.
TEST(IngestPipelineTest, ReopenWithFewerShardsIsRefused) {
  const std::string root = FreshDir("shards_4_to_2");
  WriteFourShardStore(root);
  if (::testing::Test::HasFatalFailure()) return;
  ExpectReopenWithShardsRefused(root, 2);
}

// With 8 shards every directory is read, but an object whose id mixes
// to shard 4 to 7 has its chain on a shard it no longer routes to: it
// would accept a second insert on its new shard.
TEST(IngestPipelineTest, ReopenWithMoreShardsIsRefused) {
  const std::string root = FreshDir("shards_4_to_8");
  WriteFourShardStore(root);
  if (::testing::Test::HasFatalFailure()) return;
  ExpectReopenWithShardsRefused(root, 8);
}

// A snapshot of a three-shard pipeline holds every record and extracts
// every provenance object, aggregate inputs on other shards included,
// exactly as the sequential reference store does, in (object id, seqID)
// order.
TEST(IngestPipelineTest, SnapshotExtractsAcrossShardsLikeTheReference) {
  IngestWorkloadBuilder builder;
  std::vector<ObjectId> ids;
  for (int i = 0; i < 6; ++i) {
    auto id = builder.Insert(static_cast<size_t>(i % 4),
                             storage::Value::Int(31 + i));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }
  ASSERT_TRUE(builder.Update(ids[0], 1, storage::Value::Int(99)).ok());
  ASSERT_TRUE(
      builder.Aggregate({ids[0], ids[1], ids[2]}, 2, storage::Value::Int(7))
          .ok());

  IngestOptions options;
  options.num_shards = 3;
  auto pipeline = ReplayThroughPipeline(Env::Default(), FreshDir("merge"),
                                        builder.requests(), options);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  const ProvenanceStore& reference = builder.reference_store();
  const StoreSnapshot snapshot = (*pipeline)->OpenSnapshot();
  EXPECT_EQ(snapshot.record_count(), reference.record_count());
  for (ObjectId id : builder.tracked_objects()) {
    SCOPED_TRACE("object " + std::to_string(id));
    EXPECT_EQ(snapshot.ChainRecords(id).size(), reference.ChainOf(id).size());
    auto extracted = snapshot.ExtractProvenance(id);
    auto expected = reference.ExtractProvenance(id);
    ASSERT_TRUE(extracted.ok()) << extracted.status().ToString();
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    SortByObjectAndSeq(&*expected);
    ASSERT_EQ(extracted->size(), expected->size());
    for (size_t i = 0; i < expected->size(); ++i) {
      EXPECT_EQ(EncodeRecord(*(*extracted)[i]), EncodeRecord((*expected)[i]));
    }
  }
}

TEST(IngestPipelineTest, FlushErrorPoisonsThePipeline) {
  std::string root = FreshDir("poison");
  FaultInjectionEnv env(Env::Default());
  IngestOptions options;
  options.num_shards = 1;
  options.max_batch_records = 2;
  auto pipeline = IngestPipeline::Open(&env, root, options);
  ASSERT_TRUE(pipeline.ok());

  // Fail the batch's fsync. The flush errors, nothing is committed, and
  // the pipeline stays poisoned with the same status.
  env.ScheduleSyncFailure(1);
  ASSERT_TRUE((*pipeline)->Submit(Insert(1, 0x01)).ok());
  Status flush = (*pipeline)->Submit(Insert(2, 0x02));
  EXPECT_FALSE(flush.ok());
  EXPECT_EQ((*pipeline)->OpenSnapshot().record_count(), 0u);
  env.ClearFaults();
  Status later = (*pipeline)->Submit(Insert(3, 0x03));
  EXPECT_FALSE(later.ok());
  EXPECT_EQ(later.code(), flush.code());
  EXPECT_EQ((*pipeline)->Drain().code(), flush.code());
}

// A Drain is one write-ahead over every shard: once every batch it
// closed has signed on the pool, each shard appends and fsyncs, the
// fsyncs overlapping on the I/O threads. These open a 4-shard pooled
// pipeline over `env` with two
// inserts buffered on every shard (the batch threshold never fires), so
// the next Drain touches all four. ("Ingest" in the suite name opts them
// into the TSan CI stage's filter.)
constexpr size_t kFaultShards = 4;

std::unique_ptr<IngestPipeline> OpenWithEveryShardPending(
    Env* env, const std::string& root, std::vector<ObjectId>* ids) {
  IngestOptions options;
  options.num_shards = kFaultShards;
  options.max_batch_records = 64;
  options.signing.num_threads = 4;
  auto pipeline = IngestPipeline::Open(env, root, options);
  EXPECT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  if (!pipeline.ok()) return nullptr;
  std::vector<size_t> per_shard(kFaultShards, 0);
  for (ObjectId id = 1; ids->size() < 2 * kFaultShards; ++id) {
    const size_t s = ShardIndex(id, kFaultShards);
    if (per_shard[s] == 2) continue;
    ++per_shard[s];
    ids->push_back(id);
    EXPECT_TRUE(
        (*pipeline)->Submit(Insert(id, static_cast<uint8_t>(id))).ok());
  }
  return std::move(*pipeline);
}

TEST(IngestPipelineParallelTest, DrainSyncFailureCommitsOnlyDurableShards) {
  std::string root = FreshDir("drain_sync_fault");
  FaultInjectionEnv env(Env::Default());
  std::vector<ObjectId> ids;
  std::unique_ptr<IngestPipeline> pipeline =
      OpenWithEveryShardPending(&env, root, &ids);
  ASSERT_NE(pipeline, nullptr);

  // The round's first fsync fails. The shards' fsyncs overlap, so which
  // shard draws it is up to the scheduler; its path names the shard.
  env.ScheduleSyncFailure(1);
  Status drain = pipeline->Drain();
  ASSERT_EQ(drain.code(), StatusCode::kIoError) << drain.ToString();
  size_t failed = kFaultShards;
  for (size_t s = 0; s < kFaultShards; ++s) {
    if (drain.message().find(ShardedProvenanceStore::ShardDirName(
            root, s)) != std::string::npos) {
      failed = s;
    }
  }
  ASSERT_LT(failed, kFaultShards) << drain.ToString();

  // The failed shard's batch never becomes visible; every other shard's
  // batch was fsynced, so it committed and published.
  StoreSnapshot snapshot = pipeline->OpenSnapshot();
  for (ObjectId id : ids) {
    const bool on_failed_shard = ShardIndex(id, kFaultShards) == failed;
    EXPECT_EQ(snapshot.ChainRecords(id).size(), on_failed_shard ? 0u : 1u)
        << "object " << id;
  }
  for (size_t s = 0; s < kFaultShards; ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    const uint64_t committed = snapshot.shard_view(s).record_count();
    EXPECT_EQ(committed, s == failed ? 0u : 2u);
    ASSERT_NE(pipeline->shard_wal(s), nullptr);
    EXPECT_EQ(pipeline->shard_wal(s)->synced_records(), committed);
  }
  EXPECT_EQ(pipeline->committed(), 2 * (kFaultShards - 1));

  // Poisoned with the round's status, even once the disk recovers.
  env.ClearFaults();
  Status later = pipeline->Submit(Insert(1000, 0x10));
  EXPECT_EQ(later.code(), drain.code());
  EXPECT_EQ(later.message(), drain.message());
  EXPECT_EQ(pipeline->Drain().code(), drain.code());
}

TEST(IngestPipelineParallelTest, DrainFailureReportsTheLowestFailingShard) {
  std::string root = FreshDir("drain_all_fault");
  FaultInjectionEnv env(Env::Default());
  std::vector<ObjectId> ids;
  std::unique_ptr<IngestPipeline> pipeline =
      OpenWithEveryShardPending(&env, root, &ids);
  ASSERT_NE(pipeline, nullptr);

  // Every shard's write fails, in whatever order the pool runs them; the
  // pipeline must report shard 0's failure, not the first to finish.
  env.SetFilesystemActive(false);
  Status drain = pipeline->Drain();
  ASSERT_EQ(drain.code(), StatusCode::kIoError) << drain.ToString();
  EXPECT_NE(drain.message().find(ShardedProvenanceStore::ShardDirName(
                root, 0)),
            std::string::npos)
      << drain.ToString();
  EXPECT_EQ(pipeline->OpenSnapshot().record_count(), 0u);
  EXPECT_EQ(pipeline->committed(), 0u);
  env.SetFilesystemActive(true);
  EXPECT_EQ(pipeline->Drain().message(), drain.message());
}

/// Forwards to `base`, but every WAL fsync waits at a gate the test
/// opens: it holds a write-ahead in flight while the test submits more.
class GatedSyncEnv final : public storage::Env {
 public:
  explicit GatedSyncEnv(storage::Env* base) : base_(base) {}

  /// Blocks until `n` fsyncs have reached the gate.
  void AwaitSyncsAtGate(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return at_gate_ >= n; });
  }
  void OpenGate() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

  Result<std::unique_ptr<storage::WritableFile>> NewWritableFile(
      const std::string& path) override {
    PROVDB_ASSIGN_OR_RETURN(std::unique_ptr<storage::WritableFile> file,
                            base_->NewWritableFile(path));
    return std::unique_ptr<storage::WritableFile>(
        new GatedFile(this, std::move(file)));
  }
  Result<Bytes> ReadFileToBytes(const std::string& path) override {
    return base_->ReadFileToBytes(path);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  Status RemoveFile(const std::string& path) override {
    return base_->RemoveFile(path);
  }
  Status CreateDir(const std::string& path) override {
    return base_->CreateDir(path);
  }
  Result<std::vector<std::string>> ListDir(const std::string& dir) override {
    return base_->ListDir(dir);
  }
  Result<uint64_t> FileSize(const std::string& path) override {
    return base_->FileSize(path);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  Status TruncateFile(const std::string& path, uint64_t size) override {
    return base_->TruncateFile(path, size);
  }
  Status SyncDir(const std::string& dir) override {
    return base_->SyncDir(dir);
  }

 private:
  class GatedFile final : public storage::WritableFile {
   public:
    GatedFile(GatedSyncEnv* env, std::unique_ptr<storage::WritableFile> file)
        : env_(env), file_(std::move(file)) {}
    Status Append(ByteView data) override { return file_->Append(data); }
    Status Flush() override { return file_->Flush(); }
    Status Sync() override {
      {
        std::unique_lock<std::mutex> lock(env_->mu_);
        ++env_->at_gate_;
        env_->cv_.notify_all();
        env_->cv_.wait(lock, [this] { return env_->open_; });
      }
      return file_->Sync();
    }
    Status Close() override { return file_->Close(); }

   private:
    GatedSyncEnv* env_;
    std::unique_ptr<storage::WritableFile> file_;
  };

  storage::Env* base_;
  std::mutex mu_;
  std::condition_variable cv_;
  int at_gate_ = 0;
  bool open_ = false;
};

/// Records what a producer sees: wake calls and batch completions.
struct ProducerLog {
  std::mutex mu;
  std::condition_variable cv;
  int wakes = 0;
  std::vector<BatchCompletion> completions;

  void Hook(IngestPipeline* pipeline) {
    pipeline->SetProducerHooks(
        [this] {
          std::lock_guard<std::mutex> lock(mu);
          ++wakes;
          cv.notify_all();
        },
        [this](const BatchCompletion& completion) {
          std::lock_guard<std::mutex> lock(mu);
          completions.push_back(completion);
        });
  }
  int Wakes() {
    std::lock_guard<std::mutex> lock(mu);
    return wakes;
  }
  void AwaitWakes(int n) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return wakes >= n; });
  }
};

// A write-ahead's fsync fails while the next batches — one of them
// signed on top of the failing batch's records — wait signed behind it.
// None of them may commit: every batch still in flight completes with the
// failing shard's error, which later calls repeat. ("Parallel" in the
// name opts it into the TSan CI stage's filter.)
TEST(IngestPipelineParallelTest, SignedBatchesBehindAFailedWriteAheadFail) {
  std::string root = FreshDir("poison_pipelined");
  FaultInjectionEnv faults(Env::Default());
  GatedSyncEnv env(&faults);
  IngestOptions options;
  options.num_shards = 2;
  options.max_batch_records = 2;
  options.signing.num_threads = 4;
  auto opened = IngestPipeline::Open(&env, root, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  IngestPipeline& pipeline = **opened;
  ProducerLog log;
  log.Hook(&pipeline);
  std::vector<ObjectId> on_shard[2];
  for (ObjectId id = 1; on_shard[0].size() < 2 || on_shard[1].size() < 2;
       ++id) {
    std::vector<ObjectId>& ids = on_shard[ShardIndex(id, 2)];
    if (ids.size() < 2) ids.push_back(id);
  }

  // Batch A: shard 1's two inserts. Once signed, a Poll starts its
  // write-ahead, whose fsync fails at the gate.
  faults.ScheduleSyncFailure(1);
  for (ObjectId id : on_shard[1]) {
    ASSERT_TRUE(pipeline.Submit(Insert(id, static_cast<uint8_t>(id))).ok());
  }
  log.AwaitWakes(1);
  ASSERT_TRUE(pipeline.Poll().ok());
  env.AwaitSyncsAtGate(1);

  // Batches B: updates of A's objects, signed on A's records, and two
  // inserts on shard 0. Each closed batch reports once it has signed.
  const int woken = log.Wakes();
  for (ObjectId id : on_shard[1]) {
    const uint8_t tag = static_cast<uint8_t>(id);
    ASSERT_TRUE(
        pipeline.Submit(Update(id, tag, static_cast<uint8_t>(tag + 50))).ok());
  }
  for (ObjectId id : on_shard[0]) {
    ASSERT_TRUE(pipeline.Submit(Insert(id, static_cast<uint8_t>(id))).ok());
  }
  log.AwaitWakes(woken + 2);
  EXPECT_TRUE(log.completions.empty());

  // A's fsync fails: the pipeline is poisoned with shard 1's error.
  env.OpenGate();
  log.AwaitWakes(woken + 3);
  Status poison = pipeline.Poll();
  ASSERT_EQ(poison.code(), StatusCode::kIoError) << poison.ToString();
  EXPECT_NE(
      poison.message().find(ShardedProvenanceStore::ShardDirName(root, 1)),
      std::string::npos)
      << poison.ToString();
  size_t failed_records = 0;
  for (const BatchCompletion& completion : log.completions) {
    EXPECT_EQ(completion.status.code(), poison.code());
    EXPECT_EQ(completion.status.message(), poison.message());
    failed_records += completion.records;
  }
  EXPECT_EQ(log.completions.size(), 3u) << "A, and B on either shard";
  EXPECT_EQ(failed_records, 6u);

  // Nothing committed or became visible; B never reached a WAL.
  EXPECT_EQ(pipeline.committed(), 0u);
  EXPECT_EQ(pipeline.OpenSnapshot().record_count(), 0u);
  for (size_t s = 0; s < 2; ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    ASSERT_NE(pipeline.shard_wal(s), nullptr);
    EXPECT_EQ(pipeline.shard_wal(s)->synced_records(), 0u);
    EXPECT_EQ(pipeline.shard_wal(s)->appended_records(), s == 1 ? 2u : 0u);
  }
  EXPECT_EQ(
      pipeline.Submit(Insert(on_shard[0][0] + 1000, 0x70)).message(),
      poison.message());
  EXPECT_EQ(pipeline.Drain().message(), poison.message());
}

TEST(IngestPipelineTest, SubmitValidatesAggregateShape) {
  std::string root = FreshDir("validate");
  auto pipeline = IngestPipeline::Open(Env::Default(), root, IngestOptions());
  ASSERT_TRUE(pipeline.ok());
  IngestRequest bad;
  bad.op = OperationType::kAggregate;
  bad.object = 5;
  bad.post_hash = D(0x55);
  bad.participant = &P(0);
  EXPECT_EQ((*pipeline)->Submit(bad).code(), StatusCode::kInvalidArgument);
  bad.inputs = {ObjectState{1, D(0x11)}};
  EXPECT_EQ((*pipeline)->Submit(bad).code(), StatusCode::kInvalidArgument);
  // Validation failures do not poison the pipeline.
  EXPECT_TRUE((*pipeline)->Submit(Insert(6, 0x06)).ok());
  ASSERT_TRUE((*pipeline)->Close().ok());
}

// Submit checks each request against its object's chain, pending
// requests included, and refuses a chain break without buffering it: the
// next Drain still succeeds.
TEST(IngestPipelineTest, SubmitRefusesChainBreaksWithoutPoisoning) {
  std::string root = FreshDir("chain_check");
  IngestOptions options;
  options.num_shards = 1;
  auto pipeline = IngestPipeline::Open(Env::Default(), root, options);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  ASSERT_TRUE((*pipeline)->Submit(Insert(1, 0x01)).ok());
  ASSERT_TRUE((*pipeline)->Drain().ok());  // object 1: a committed chain
  ASSERT_TRUE((*pipeline)->Submit(Insert(2, 0x02)).ok());  // 2: pending

  // A second insert of an object already pending in the same batch.
  EXPECT_EQ((*pipeline)->Submit(Insert(2, 0x12)).code(),
            StatusCode::kFailedPrecondition);
  // An insert of an object with a committed chain.
  EXPECT_EQ((*pipeline)->Submit(Insert(1, 0x11)).code(),
            StatusCode::kFailedPrecondition);
  // An aggregate whose output has a chain, committed or pending.
  EXPECT_EQ((*pipeline)->Submit(Aggregate(1, 9, 0x91, 1)).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ((*pipeline)->Submit(Aggregate(2, 9, 0x92, 1)).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ((*pipeline)->submitted(), 2u) << "a refused request was buffered";

  ASSERT_TRUE((*pipeline)->Submit(Update(2, 0x02, 0x22)).ok());
  ASSERT_TRUE((*pipeline)->Drain().ok());
  const StoreSnapshot snapshot = (*pipeline)->OpenSnapshot();
  EXPECT_EQ(snapshot.record_count(), 3u);
  auto report = ProvenanceVerifier(&TestPki::Instance().registry())
                    .VerifyStore(snapshot);
  EXPECT_TRUE(report.ok()) << report.ToString();
  ASSERT_TRUE((*pipeline)->Close().ok());
}

// The seq id Submit reports is the one the committed record carries:
// chains continue across pending requests, a bootstrap update starts at
// 0, and an aggregate takes its producer-computed seq id.
TEST(IngestPipelineTest, SubmitReportsTheCommittedSeqIds) {
  std::string root = FreshDir("seq_ids");
  IngestOptions options;
  options.num_shards = 2;
  options.max_batch_records = 2;  // some requests flush, some stay pending
  auto pipeline = IngestPipeline::Open(Env::Default(), root, options);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();

  const std::vector<IngestRequest> requests = {
      Update(5, 0x50, 0x51),  // bootstrap: no chain yet
      Insert(6, 0x60),
      Update(6, 0x60, 0x61),
      Update(5, 0x51, 0x52),
      Update(6, 0x61, 0x62),
      Aggregate(7, 6, 0x70, 3),  // 1 + the input's seq id 2
      Update(7, 0x70, 0x71),
  };
  std::map<ObjectId, std::vector<SeqId>> reported;
  for (const IngestRequest& request : requests) {
    SeqId seq = 99;
    ASSERT_TRUE((*pipeline)->Submit(request, &seq).ok());
    reported[request.object].push_back(seq);
  }
  ASSERT_TRUE((*pipeline)->Drain().ok());
  EXPECT_EQ(reported[5], (std::vector<SeqId>{0, 1}));
  EXPECT_EQ(reported[6], (std::vector<SeqId>{0, 1, 2}));
  EXPECT_EQ(reported[7], (std::vector<SeqId>{3, 4}));

  const StoreSnapshot snapshot = (*pipeline)->OpenSnapshot();
  for (const auto& [object, seqs] : reported) {
    SCOPED_TRACE("object " + std::to_string(object));
    auto chain = snapshot.ChainRecords(object);
    ASSERT_EQ(chain.size(), seqs.size());
    for (size_t i = 0; i < seqs.size(); ++i) {
      EXPECT_EQ(chain[i]->seq_id, seqs[i]);
    }
  }
  ASSERT_TRUE((*pipeline)->Close().ok());
}

// A prune the store refuses (an aggregation input) is refused before its
// marker reaches the WAL: recovery replays every marker, so a refused one
// on disk would leave the directory unrecoverable.
TEST(IngestPipelineTest, RefusedPruneAppendsNothing) {
  std::string root = FreshDir("refused_prune");
  IngestOptions options;
  options.num_shards = 1;
  auto pipeline = IngestPipeline::Open(Env::Default(), root, options);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  ASSERT_TRUE((*pipeline)->Submit(Insert(1, 0x01)).ok());
  ASSERT_TRUE((*pipeline)->Submit(Aggregate(2, 1, 0x20, 1)).ok());
  ASSERT_TRUE((*pipeline)->Drain().ok());

  const uint64_t appended = (*pipeline)->shard_wal(0)->appended_records();
  EXPECT_EQ((*pipeline)->Prune(1).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ((*pipeline)->shard_wal(0)->appended_records(), appended);
  // Not poisoned: ingest goes on.
  ASSERT_TRUE((*pipeline)->Submit(Update(1, 0x01, 0x11)).ok());
  ASSERT_TRUE((*pipeline)->Close().ok());

  std::vector<storage::WalRecoveryReport> reports;
  auto recovered =
      ShardedProvenanceStore::Recover(Env::Default(), root, 1, &reports);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(reports[0].clean()) << reports[0].detail;
  EXPECT_EQ(recovered->shard(0).live_record_count(), 3u);
}

// A memory-only pipeline signs, commits and publishes with no Env: no
// WAL exists, nothing is appended or synced, and there is nothing to
// checkpoint.
TEST(IngestPipelineTest, MemoryOnlyPipelineWritesNothing) {
  observability::Counter* appends =
      observability::GlobalMetrics().counter("wal.appends");
  observability::Counter* syncs =
      observability::GlobalMetrics().counter("wal.syncs");
  const uint64_t appends_before = appends->value();
  const uint64_t syncs_before = syncs->value();

  IngestOptions options;
  options.num_shards = 2;
  options.max_batch_records = 2;
  auto pipeline = IngestPipeline::OpenInMemory(options);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  for (ObjectId id = 1; id <= 4; ++id) {
    const uint8_t tag = static_cast<uint8_t>(id);
    ASSERT_TRUE((*pipeline)->Submit(Insert(id, tag)).ok());
    ASSERT_TRUE((*pipeline)
                    ->Submit(Update(id, tag, static_cast<uint8_t>(tag + 10)))
                    .ok());
  }
  ASSERT_TRUE((*pipeline)->Drain().ok());
  const StoreSnapshot snapshot = (*pipeline)->OpenSnapshot();
  EXPECT_EQ(snapshot.record_count(), 8u);
  auto report = ProvenanceVerifier(&TestPki::Instance().registry())
                    .VerifyStore(snapshot);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ((*pipeline)->shard_wal(0), nullptr);
  EXPECT_EQ((*pipeline)->shard_wal(1), nullptr);
  EXPECT_EQ(appends->value(), appends_before);
  EXPECT_EQ(syncs->value(), syncs_before);

  EXPECT_EQ((*pipeline)->CheckpointNow().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE((*pipeline)->Close().ok());

  // A checkpoint policy needs a WAL to compact.
  options.checkpoint.every_records = 4;
  options.checkpoint.signer = &P(0).signer();
  EXPECT_EQ(IngestPipeline::OpenInMemory(options).status().code(),
            StatusCode::kInvalidArgument);
}

// Parallel signing must be bit-identical to sequential signing: RSA
// signing is deterministic and chain groups sign in seqID order
// regardless of which worker runs them. (Also the TSan target for the
// ingest pipeline's concurrency.)
TEST(IngestPipelineParallelTest, ParallelSigningMatchesSequential) {
  std::vector<IngestRequest> requests;
  for (ObjectId id = 41; id <= 48; ++id) {
    requests.push_back(Insert(id, static_cast<uint8_t>(id),
                              static_cast<size_t>(id % 4)));
    requests.push_back(Update(id, static_cast<uint8_t>(id),
                              static_cast<uint8_t>(id + 100),
                              static_cast<size_t>((id + 1) % 4)));
  }

  auto run = [&](int threads, const std::string& tag) {
    std::string root = FreshDir("par_" + tag);
    IngestOptions options;
    options.num_shards = 2;
    options.max_batch_records = 16;
    options.signing.num_threads = threads;
    auto pipeline = IngestPipeline::Open(Env::Default(), root, options);
    EXPECT_TRUE(pipeline.ok()) << pipeline.status().ToString();
    for (size_t i = 0; i < requests.size(); ++i) {
      EXPECT_TRUE((*pipeline)->Submit(requests[i]).ok());
    }
    EXPECT_TRUE((*pipeline)->Close().ok());
    std::vector<Bytes> encoded;
    const StoreSnapshot snapshot = (*pipeline)->OpenSnapshot();
    for (ObjectId id = 41; id <= 48; ++id) {
      for (const ProvenanceRecord* rec : snapshot.ChainRecords(id)) {
        encoded.push_back(EncodeRecord(*rec));
      }
    }
    return encoded;
  };

  std::vector<Bytes> sequential = run(1, "seq");
  std::vector<Bytes> parallel = run(4, "par");
  ASSERT_EQ(sequential.size(), parallel.size());
  for (size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_EQ(sequential[i], parallel[i]) << "record " << i << " differs";
  }
}

// The pipeline is thread-safe-serialized: every public operation takes the
// pipeline-wide mutex. Four producers hammer Submit from the pool at once;
// each owns a disjoint id range so per-object record order (Insert before
// Update) is program order within one producer, and the final store must
// contain every record and verify clean. ("Concurrent" in the name opts
// this test into the TSan CI stage's filter.)
TEST(IngestPipelineConcurrentTest, ConcurrentProducersSerializeSafely) {
  std::string root = FreshDir("concurrent");
  IngestOptions options;
  options.num_shards = 4;
  options.max_batch_records = 8;
  auto pipeline = IngestPipeline::Open(Env::Default(), root, options);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();

  constexpr int kProducers = 4;
  constexpr ObjectId kPerProducer = 16;
  ThreadPool pool(kProducers);
  std::vector<std::future<Status>> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.push_back(pool.Submit([&pipeline, p]() -> Status {
      for (ObjectId i = 0; i < kPerProducer; ++i) {
        ObjectId id = 1000 + static_cast<ObjectId>(p) * kPerProducer + i;
        uint8_t tag = static_cast<uint8_t>(id);
        Status s = (*pipeline)->Submit(Insert(id, tag));
        if (!s.ok()) return s;
        s = (*pipeline)->Submit(
            Update(id, tag, static_cast<uint8_t>(tag + 100)));
        if (!s.ok()) return s;
      }
      return Status::OK();
    }));
  }
  for (auto& f : producers) EXPECT_TRUE(f.get().ok());

  ASSERT_TRUE((*pipeline)->Drain().ok());
  EXPECT_EQ((*pipeline)->committed(),
            static_cast<uint64_t>(kProducers) * kPerProducer * 2);
  const StoreSnapshot snapshot = (*pipeline)->OpenSnapshot();
  EXPECT_EQ(snapshot.record_count(),
            static_cast<uint64_t>(kProducers) * kPerProducer * 2);
  auto report = ProvenanceVerifier(&TestPki::Instance().registry())
                    .VerifyStore(snapshot);
  EXPECT_TRUE(report.ok()) << report.ToString();
  ASSERT_TRUE((*pipeline)->Close().ok());
}

}  // namespace
}  // namespace provdb::provenance
