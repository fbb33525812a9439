// Sharded batched ingest throughput: the IngestPipeline (parallel
// signing + per-shard WAL group commit) against the sequential
// sync-every-record baseline, over a Table-1 synthetic database with a
// Fig-10-style mixed op stream (inserts / updates / aggregations).
//
// Matrix: {1, 2, 4, 8} shards x {one-record batches, group commit}, with
// one signing thread per shard. One-record batches (max_batch_records 1)
// fsync every record only on the sequential 1-shard row, the baseline;
// pooled, every signed one-record batch joins the next write-ahead, so
// those rows group-commit small batches (the fsyncs column shows how
// many).
// The request stream is pre-generated (untimed), so the timed region is
// exactly what the pipeline owns: signing, batching, WAL appends, and
// fsyncs. After every configuration the full cross-shard verify pass
// must accept the store — a throughput number for a store that fails
// verification is worthless — and the run exits nonzero if the 4-shard
// group-commit configuration fails to clear 2x over the baseline. On a
// single-core machine the parallel-signing axis cannot express itself
// (all signing serializes onto one CPU), so there the run is held to the
// machine's own fsync-amortization bound instead, computed from the
// measured per-config fsync time and printed alongside the verdict.

#include <string>
#include <vector>

#include "common/thread_pool.h"

#include "bench_common.h"
#include "provenance/chain.h"
#include "provenance/checksum.h"
#include "provenance/ingest_pipeline.h"
#include "provenance/subtree_hasher.h"
#include "provenance/verifier.h"
#include "storage/env.h"
#include "storage/tree_store.h"
#include "storage/value.h"
#include "workload/synthetic.h"

namespace provdb::bench {
namespace {

using provenance::BuildSignedIngestRecord;
using provenance::IngestOptions;
using provenance::IngestPipeline;
using provenance::IngestRequest;
using provenance::ObjectState;
using provenance::OperationType;
using provenance::ShardedProvenanceStore;
using storage::Env;
using storage::ObjectId;
using storage::TreeStore;
using storage::Value;

/// Generates the request stream against a live tree, signing each record
/// once (untimed) so later aggregate requests can carry the previous
/// checksums of their inputs — the same resolution the tracked database
/// performs at emit time. The pipeline re-signs during the timed run.
class RequestGenerator {
 public:
  RequestGenerator(crypto::HashAlgorithm alg,
                   const crypto::Participant* participant)
      : engine_(alg), hasher_(&tree_, alg), participant_(participant) {}

  TreeStore* mutable_tree() { return &tree_; }
  const TreeStore& tree() const { return tree_; }
  const std::vector<IngestRequest>& requests() const { return requests_; }
  const std::vector<ObjectId>& tracked() const { return tracked_; }

  void InsertRow(ObjectId table, int num_attributes, Rng* rng) {
    ObjectId row = tree_.Insert(Value::String("row"), table).value();
    for (int a = 0; a < num_attributes; ++a) {
      OrAbort(tree_.Insert(Value::Int(rng->NextInRange(0, 1 << 20)), row)
                  .status());
    }
    IngestRequest request;
    request.op = OperationType::kInsert;
    request.object = row;
    request.post_hash = hasher_.HashSubtreeBasic(row).value();
    request.participant = participant_;
    Apply(std::move(request));
    tracked_.push_back(row);
  }

  void UpdateCell(ObjectId row, size_t column, Rng* rng) {
    ObjectId cell = workload::CellIdOf(tree_, row, column).value();
    const bool first = !chains_.Get(row).exists;
    IngestRequest request;
    request.op = OperationType::kUpdate;
    request.object = row;
    request.has_pre_hash = true;
    request.pre_hash = hasher_.HashSubtreeBasic(row).value();
    OrAbort(tree_.Update(cell, Value::Int(rng->NextInRange(0, 1 << 20))));
    request.post_hash = hasher_.HashSubtreeBasic(row).value();
    request.participant = participant_;
    Apply(std::move(request));
    if (first) tracked_.push_back(row);
  }

  void AggregateRows(std::vector<ObjectId> inputs) {
    std::sort(inputs.begin(), inputs.end());
    inputs.erase(std::unique(inputs.begin(), inputs.end()), inputs.end());
    IngestRequest request;
    request.op = OperationType::kAggregate;
    provenance::SeqId max_seq = 0;
    for (ObjectId in : inputs) {
      request.inputs.push_back(
          ObjectState{in, hasher_.HashSubtreeBasic(in).value()});
      provenance::LocalChainState::Tail tail = chains_.Get(in);
      request.input_prev_checksums.push_back(tail.checksum);
      if (tail.exists && tail.seq_id > max_seq) max_seq = tail.seq_id;
    }
    ObjectId out = tree_.Aggregate(inputs, Value::String("agg")).value();
    request.object = out;
    request.post_hash = hasher_.HashSubtreeBasic(out).value();
    request.aggregate_seq = max_seq + 1;
    request.participant = participant_;
    Apply(std::move(request));
    tracked_.push_back(out);
  }

 private:
  void Apply(IngestRequest request) {
    provenance::ProvenanceRecord record =
        BuildSignedIngestRecord(engine_, chains_.Get(request.object), request)
            .value();
    chains_.Set(record.output.object_id, record.seq_id, record.checksum);
    requests_.push_back(std::move(request));
  }

  provenance::ChecksumEngine engine_;
  TreeStore tree_;
  provenance::SubtreeHasher hasher_;
  provenance::LocalChainState chains_;
  const crypto::Participant* participant_;
  std::vector<IngestRequest> requests_;
  std::vector<ObjectId> tracked_;
};

void CleanRoot(Env* env, const std::string& root) {
  auto entries = env->ListDir(root);
  if (!entries.ok()) return;
  for (const std::string& entry : *entries) {
    std::string dir = root + "/" + entry;
    auto files = env->ListDir(dir);
    if (!files.ok()) continue;
    for (const std::string& f : *files) OrAbort(env->RemoveFile(dir + "/" + f));
  }
}

struct ConfigResult {
  double seconds = 0;
  uint64_t fsyncs = 0;
  double fsync_seconds = 0;  // measured time inside fsync, this config
};

ConfigResult RunConfig(Env* env, const std::string& root,
                       const std::vector<IngestRequest>& requests,
                       const crypto::ParticipantRegistry& registry,
                       size_t shards, bool one_record_batches) {
  CleanRoot(env, root);
  IngestOptions options;
  options.num_shards = shards;
  if (one_record_batches) options.max_batch_records = 1;
  options.signing.num_threads = static_cast<int>(shards);
  observability::Counter* wal_syncs =
      observability::GlobalMetrics().counter("wal.syncs");
  observability::Histogram* sync_latency =
      observability::GlobalMetrics().histogram("wal.sync.latency_us");
  const uint64_t syncs_before = wal_syncs->value();
  const uint64_t sync_us_before = sync_latency->sum_micros();

  auto pipeline = IngestPipeline::Open(env, root, options);
  OrAbort(pipeline.status());
  ConfigResult result;
  Stopwatch watch;
  for (const IngestRequest& request : requests) {
    OrAbort((*pipeline)->Submit(request));
  }
  OrAbort((*pipeline)->Close());
  result.seconds = watch.ElapsedSeconds();
  result.fsyncs = wal_syncs->value() - syncs_before;
  result.fsync_seconds =
      static_cast<double>(sync_latency->sum_micros() - sync_us_before) / 1e6;

  // The verify pass is the bench's admission ticket, not part of the
  // timed region.
  auto report = provenance::ProvenanceVerifier(&registry).VerifyStore(
      (*pipeline)->OpenSnapshot());
  if (!report.ok()) {
    std::fprintf(stderr, "FATAL: %zu shards (%s): verify rejected: %s\n",
                 shards, one_record_batches ? "batch-1" : "group-commit",
                 report.ToString().c_str());
    std::abort();
  }
  return result;
}

int Run(int argc, char** argv) {
  Flags flags(argc, argv);
  const size_t bootstrap_rows =
      static_cast<size_t>(flags.GetInt("bootstrap_rows", 200));
  const size_t ops = static_cast<size_t>(flags.GetInt("ops", 1200));
  // Test-PKI-scale keys by default so the durability policy stays visible
  // next to signing cost; --rsa_bits=1024 for paper-faithful keys (there
  // signing dominates and the gain comes from the parallel-signing axis).
  const size_t rsa_bits = static_cast<size_t>(flags.GetInt("rsa_bits", 512));
  const std::string root =
      flags.GetString("dir", "/tmp/provdb_bench_ingest_pipeline");

  PrintHeader("Sharded batched ingest: shards x durability policy",
              "Table 1 data, Fig-10-style mixed ops (no paper figure)");

  // Table 1's first synthetic table shape (8 integer attributes), scaled
  // to `bootstrap_rows` of untracked pre-existing data plus a tracked
  // mixed op stream over it.
  const workload::SyntheticTableSpec spec{
      workload::PaperTableSpecs()[0].num_attributes,
      static_cast<int>(bootstrap_rows)};
  BenchPki pki = BenchPki::Create(rsa_bits);
  RequestGenerator gen(crypto::HashAlgorithm::kSha1, pki.participant.get());
  Rng rng(0x1A6E57);
  auto layout =
      workload::BuildSyntheticDatabase(gen.mutable_tree(), {spec}, &rng);
  OrAbort(layout.status());
  const auto& rows = layout->tables[0].rows;

  // Mixed stream: ~40% row inserts, ~45% cell updates (row-level
  // records), ~15% aggregations of tracked rows — Fig 10's mix.
  std::vector<ObjectId> updatable(rows.begin(), rows.end());
  for (size_t i = 0; i < ops; ++i) {
    const double r = rng.NextDouble();
    if (r < 0.40) {
      gen.InsertRow(layout->tables[0].table_id, spec.num_attributes, &rng);
      updatable.push_back(gen.tracked().back());
    } else if (r < 0.85 || gen.tracked().size() < 2) {
      ObjectId row = updatable[rng.NextBelow(updatable.size())];
      gen.UpdateCell(row, rng.NextBelow(spec.num_attributes), &rng);
    } else {
      const auto& tracked = gen.tracked();
      std::vector<ObjectId> inputs;
      for (size_t k = 0; k < 2 + rng.NextBelow(3); ++k) {
        inputs.push_back(tracked[rng.NextBelow(tracked.size())]);
      }
      gen.AggregateRows(std::move(inputs));
    }
  }
  std::printf("%zu bootstrap rows x %d attrs, %zu mixed ops -> %zu records, "
              "RSA-%zu\n\n",
              bootstrap_rows, spec.num_attributes, ops,
              gen.requests().size(), rsa_bits);

  Env* env = Env::Default();
  std::printf("%-14s %7s %10s %12s %8s %9s\n", "mode", "shards", "seconds",
              "records/s", "fsyncs", "speedup");
  ConfigResult baseline;
  ConfigResult four_shard_gc;
  for (bool one_record_batches : {true, false}) {
    for (size_t shards : {1u, 2u, 4u, 8u}) {
      ConfigResult result =
          RunConfig(env, root, gen.requests(), *pki.registry, shards,
                    one_record_batches);
      if (one_record_batches && shards == 1) baseline = result;
      if (!one_record_batches && shards == 4) four_shard_gc = result;
      std::printf("%-14s %7zu %10.3f %12.0f %8llu %8.2fx\n",
                  one_record_batches ? "batch-1" : "group-commit", shards,
                  result.seconds,
                  static_cast<double>(gen.requests().size()) / result.seconds,
                  static_cast<unsigned long long>(result.fsyncs),
                  baseline.seconds / result.seconds);
    }
  }
  CleanRoot(env, root);

  std::printf(
      "\nshape check: group commit amortizes fsyncs per batch and signing\n"
      "fans out across shards, so throughput scales with shard count until\n"
      "fsync or core count saturates. every configuration passed the full\n"
      "cross-shard verify pass.\n");

  const double speedup = baseline.seconds / four_shard_gc.seconds;
  const int cores = ParallelismConfig::Hardware().num_threads;
  bool pass;
  if (cores >= 2) {
    pass = speedup >= 2.0;
    std::printf("speedup check (4-shard group commit >= 2x baseline, "
                "%d cores): %.2fx -> %s\n",
                cores, speedup, pass ? "PASS" : "FAIL");
  } else {
    // One core: signing cannot fan out, so the best any policy can do is
    // remove the baseline's fsync time. Hold the run to 85% of that
    // measured bound instead of the multicore 2x target.
    const double fsync_saved = baseline.fsync_seconds -
                               four_shard_gc.fsync_seconds;
    const double bound = baseline.seconds /
                         (baseline.seconds - fsync_saved);
    pass = speedup >= 2.0 || speedup >= 0.85 * bound;
    std::printf("speedup check: single core — parallel signing cannot fan "
                "out;\nfsync-amortization bound for this machine/disk is "
                "%.2fx.\n4-shard group commit: %.2fx (>= 2x or >= 85%% of "
                "bound) -> %s\n",
                bound, speedup, pass ? "PASS" : "FAIL");
  }
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace provdb::bench

int main(int argc, char** argv) {
  return provdb::bench::BenchMain(argc, argv, provdb::bench::Run);
}
