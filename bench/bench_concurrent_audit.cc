// Snapshot-read overhead on the ingest write path (DESIGN.md §16): the
// same pre-generated request stream replayed through the IngestPipeline
// with 0, 1, and 4 concurrent auditors, each continuously opening
// epoch-pinned snapshots and running the full check-2 verification pass
// over the cut. Snapshots never take the pipeline lock, so the only cost
// an auditor can impose on the writer is deferred reclamation plus CPU
// contention — the design's claim is that one auditor costs the writer
// less than 10% of its throughput, which this harness gates (on machines
// with at least 2 hardware threads; on a single core writer and auditor
// trivially timeshare and the gate says nothing about the design).
//
// The stream is inserts + updates only: aggregate input resolution is
// orthogonal to the snapshot mechanism and would only add noise to the
// ratio under test. Every configuration must still pass the full
// cross-shard verify afterwards — a throughput number for a store that
// fails verification is worthless.

#include <atomic>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/thread_pool.h"
#include "provenance/ingest_pipeline.h"
#include "provenance/verifier.h"
#include "storage/env.h"

namespace provdb::bench {
namespace {

using provenance::IngestOptions;
using provenance::IngestPipeline;
using provenance::IngestRequest;
using provenance::ObjectState;
using provenance::OperationType;
using provenance::ProvenanceVerifier;
using provenance::VerificationReport;
using storage::Env;
using storage::ObjectId;

crypto::Digest RandomDigest(Rng* rng) {
  Bytes bytes;
  rng->NextBytes(&bytes, 20);
  return crypto::Digest::FromBytes(bytes);
}

/// ~40% inserts / 60% updates over a growing object population, with the
/// per-object last state threaded through so updates carry a plausible
/// pre hash. The pipeline signs during the timed run.
std::vector<IngestRequest> GenerateStream(size_t ops,
                                          const crypto::Participant* p,
                                          Rng* rng) {
  std::vector<IngestRequest> requests;
  std::vector<ObjectId> objects;
  std::vector<crypto::Digest> last_hash;
  ObjectId next_id = 1;
  for (size_t i = 0; i < ops; ++i) {
    IngestRequest request;
    request.participant = p;
    if (objects.empty() || rng->NextDouble() < 0.40) {
      request.op = OperationType::kInsert;
      request.object = next_id++;
      request.post_hash = RandomDigest(rng);
      objects.push_back(request.object);
      last_hash.push_back(request.post_hash);
    } else {
      size_t pick = rng->NextBelow(objects.size());
      request.op = OperationType::kUpdate;
      request.object = objects[pick];
      request.has_pre_hash = true;
      request.pre_hash = last_hash[pick];
      request.post_hash = RandomDigest(rng);
      last_hash[pick] = request.post_hash;
    }
    requests.push_back(std::move(request));
  }
  return requests;
}

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
  double seconds = 0;       // best-of-reps writer wall time
  uint64_t audits = 0;      // snapshot verify passes completed (last rep)
  uint64_t cut_issues = 0;  // non-clean audit reports seen (must be 0)
};

ConfigResult RunConfig(Env* env, const std::string& root,
                       const std::vector<IngestRequest>& requests,
                       const crypto::ParticipantRegistry& registry,
                       size_t num_auditors, int reps) {
  ConfigResult best;
  for (int rep = 0; rep < reps; ++rep) {
    CleanRoot(env, root);
    IngestOptions options;
    options.num_shards = 2;
    options.max_batch_records = 64;
    auto pipeline = IngestPipeline::Open(env, root, options);
    OrAbort(pipeline.status());

    std::atomic<bool> done{false};
    std::atomic<uint64_t> audits{0};
    std::atomic<uint64_t> issues{0};
    std::unique_ptr<ThreadPool> pool;
    std::vector<std::future<void>> auditors;
    if (num_auditors > 0) {
      pool = std::make_unique<ThreadPool>(num_auditors);
      IngestPipeline* live = pipeline->get();
      for (size_t a = 0; a < num_auditors; ++a) {
        auditors.push_back(pool->Submit([live, &registry, &done, &audits,
                                         &issues] {
          ProvenanceVerifier verifier(&registry);
          while (!done.load(std::memory_order_acquire)) {
            provenance::StoreSnapshot snapshot = live->OpenSnapshot();
            VerificationReport report = verifier.VerifyStore(snapshot);
            // Insert/update-only stream: every batch-boundary cut must
            // verify completely clean.
            if (!report.ok()) issues.fetch_add(1, std::memory_order_relaxed);
            audits.fetch_add(1, std::memory_order_relaxed);
          }
        }));
      }
    }

    Stopwatch watch;
    for (const IngestRequest& request : requests) {
      OrAbort((*pipeline)->Submit(request));
    }
    OrAbort((*pipeline)->Drain());
    const double seconds = watch.ElapsedSeconds();
    done.store(true, std::memory_order_release);
    for (std::future<void>& f : auditors) f.get();
    OrAbort((*pipeline)->Close());

    auto report =
        ProvenanceVerifier(&registry).VerifyStore((*pipeline)->OpenSnapshot());
    if (!report.ok()) {
      std::fprintf(stderr, "FATAL: %zu auditors: final verify rejected: %s\n",
                   num_auditors, report.ToString().c_str());
      std::abort();
    }
    if (rep == 0 || seconds < best.seconds) best.seconds = seconds;
    best.audits = audits.load();
    best.cut_issues += issues.load();
  }
  return best;
}

int Run(int argc, char** argv) {
  Flags flags(argc, argv);
  const size_t ops = static_cast<size_t>(flags.GetInt("ops", 2000));
  const int reps = static_cast<int>(flags.GetInt("reps", 3));
  const size_t rsa_bits = static_cast<size_t>(flags.GetInt("rsa_bits", 512));
  const std::string root =
      flags.GetString("dir", "/tmp/provdb_bench_concurrent_audit");

  PrintHeader("Ingest throughput vs concurrent snapshot auditors",
              "DESIGN.md §16 (no paper figure; the paper audits offline)");

  BenchPki pki = BenchPki::Create(rsa_bits);
  Rng rng(0xCA0DB575);
  std::vector<IngestRequest> requests =
      GenerateStream(ops, pki.participant.get(), &rng);
  std::printf("%zu mixed insert/update ops, 2 shards, batch 64, RSA-%zu, "
              "best of %d reps\n\n",
              ops, rsa_bits, reps);

  Env* env = Env::Default();
  std::printf("%9s %10s %12s %14s %10s\n", "auditors", "seconds",
              "records/s", "audit passes", "overhead");
  double baseline_seconds = 0;
  double one_auditor_seconds = 0;
  uint64_t total_cut_issues = 0;
  for (size_t auditors : {0u, 1u, 4u}) {
    ConfigResult result =
        RunConfig(env, root, requests, *pki.registry, auditors, reps);
    if (auditors == 0) baseline_seconds = result.seconds;
    if (auditors == 1) one_auditor_seconds = result.seconds;
    total_cut_issues += result.cut_issues;
    std::printf("%9zu %10.3f %12.0f %14llu %9.1f%%\n", auditors,
                result.seconds,
                static_cast<double>(requests.size()) / result.seconds,
                static_cast<unsigned long long>(result.audits),
                (result.seconds / baseline_seconds - 1.0) * 100.0);
  }
  CleanRoot(env, root);

  if (total_cut_issues > 0) {
    std::printf("\nFAIL: %llu snapshot cuts did not verify clean\n",
                static_cast<unsigned long long>(total_cut_issues));
    return 1;
  }

  std::printf(
      "\nshape check: snapshots take no pipeline lock, so auditors cost the\n"
      "writer only CPU contention and deferred reclamation; every cut an\n"
      "auditor verified was a clean durable batch prefix.\n");

  const double degradation =
      one_auditor_seconds / baseline_seconds - 1.0;
  const int cores = ParallelismConfig::Hardware().num_threads;
  if (cores < 2) {
    std::printf("degradation check: single hardware thread — writer and\n"
                "auditor timeshare one core, ratio is meaningless -> SKIP\n");
    return 0;
  }
  const bool pass = degradation < 0.10;
  std::printf("degradation check (1 auditor < 10%% over 0 auditors, "
              "%d cores): %.1f%% -> %s\n",
              cores, degradation * 100.0, pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace provdb::bench

int main(int argc, char** argv) {
  return provdb::bench::BenchMain(argc, argv, provdb::bench::Run);
}
