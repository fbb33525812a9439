// Network provenance service throughput: the full wire path (frame
// decode, admission, executor validation, pipeline group commit, framed
// response) under a skewed multi-client workload, at 1 / 8 / 64 / 512
// simulated clients.
//
// Each phase boots a fresh pipeline + server on an ephemeral loopback
// port, resets the metrics registry, and drives a fixed total request
// budget split evenly across that phase's clients (so every phase does
// comparable work and the axis is concurrency, not volume). Clients obey
// the load generator's chain discipline — disjoint object slices, Zipf
// skew inside each slice, at most one in-flight request per object — so
// after the run every accepted record must belong to a perfectly linked,
// signature-valid chain. The phase gate enforces exactly that: the
// post-run cross-shard VerifyStore pass must be clean AND account for
// every accepted submit (accepted == records checked). Sustained
// records/sec comes from the load report; p50/p95/p99 come from the
// server's own `server.request.latency` histogram, i.e. arrival at the
// poll thread to durable-and-acked on the executor.

#include <string>
#include <vector>

#include "common/thread_pool.h"

#include "bench_common.h"
#include "net/server.h"
#include "provenance/ingest_pipeline.h"
#include "provenance/verifier.h"
#include "storage/env.h"
#include "workload/load_generator.h"

namespace provdb::bench {
namespace {

using provenance::IngestOptions;
using provenance::IngestPipeline;
using storage::Env;

/// CA + `n` participants (ids 1..n) so submits exercise multi-signer
/// chains the way a real deployment would.
struct ServerPki {
  std::unique_ptr<crypto::CertificateAuthority> ca;
  std::vector<std::unique_ptr<crypto::Participant>> participants;
  std::unique_ptr<crypto::ParticipantRegistry> registry;

  static ServerPki Create(size_t n, size_t rsa_bits) {
    Rng rng(0x5E17E5);
    ServerPki pki;
    pki.ca = std::make_unique<crypto::CertificateAuthority>(
        crypto::CertificateAuthority::Create(rsa_bits, &rng).value());
    pki.registry =
        std::make_unique<crypto::ParticipantRegistry>(pki.ca->public_key());
    for (size_t i = 1; i <= n; ++i) {
      pki.participants.push_back(std::make_unique<crypto::Participant>(
          crypto::Participant::Create(i, "client-" + std::to_string(i),
                                      rsa_bits, &rng, *pki.ca)
              .value()));
      OrAbort(pki.registry->Register(pki.participants.back()->certificate()));
    }
    return pki;
  }
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

struct PhaseResult {
  workload::LoadReport load;
  double p50 = 0, p95 = 0, p99 = 0;
  uint64_t records_checked = 0;
  uint64_t issues = 0;
  bool verify_ok = false;

  bool pass() const {
    return verify_ok && load.failed == 0 &&
           records_checked == load.accepted;
  }
};

Result<PhaseResult> RunPhase(Env* env, const std::string& root,
                             const ServerPki& pki, size_t clients,
                             uint64_t requests_per_client, size_t shards) {
  CleanRoot(env, root);

  IngestOptions ingest;
  ingest.num_shards = shards;
  ingest.signing = ParallelismConfig::Hardware();
  PROVDB_ASSIGN_OR_RETURN(std::unique_ptr<IngestPipeline> pipeline,
                          IngestPipeline::Open(env, root, ingest));

  observability::GlobalMetrics().Reset();

  std::map<crypto::ParticipantId, const crypto::Participant*> participants;
  workload::LoadOptions load;
  for (const auto& p : pki.participants) {
    participants[p->certificate().participant_id] = p.get();
    load.participant_ids.push_back(p->certificate().participant_id);
  }
  PROVDB_ASSIGN_OR_RETURN(
      std::unique_ptr<net::ProvenanceServer> server,
      net::ProvenanceServer::Start(pipeline.get(), pki.registry.get(),
                                   std::move(participants),
                                   net::ServerOptions{}));

  load.port = server->port();
  load.num_clients = clients;
  load.requests_per_client = requests_per_client;

  PhaseResult result;
  PROVDB_ASSIGN_OR_RETURN(result.load, workload::RunLoad(load));

  // Latency percentiles from the server's own histogram, read before the
  // server stops (nothing records after the last response is acked).
  for (const auto& h : observability::GlobalMetrics().Snapshot().histograms) {
    if (h.name == "server.request.latency") {
      result.p50 = h.p50_micros;
      result.p95 = h.p95_micros;
      result.p99 = h.p99_micros;
    }
  }

  server->Stop();
  server.reset();
  PROVDB_RETURN_IF_ERROR(pipeline->Drain());

  // The gate: a throughput number for a store that fails verification —
  // or that silently dropped accepted records — is worthless.
  const provenance::ProvenanceVerifier verifier(
      pki.registry.get(), ingest.hash_algorithm,
      ParallelismConfig::Hardware());
  provenance::VerificationReport report =
      verifier.VerifyStore(pipeline->OpenSnapshot());
  result.records_checked = report.records_checked;
  result.issues = report.issues.size();
  result.verify_ok = report.ok();
  return result;
}

int Run(int argc, char** argv) {
  Flags flags(argc, argv);
  const uint64_t total_requests =
      static_cast<uint64_t>(flags.GetInt("requests", 2048));
  const size_t rsa_bits = static_cast<size_t>(flags.GetInt("rsa-bits", 1024));
  const size_t shards = static_cast<size_t>(flags.GetInt("shards", 4));
  const std::string root =
      flags.GetString("dir", "/tmp/provdb_bench_server_throughput");

  PrintHeader("Network service: sustained ingest vs client concurrency",
              "no paper figure; service layer over the Fig-10 pipeline");
  std::printf("%llu total requests per phase, RSA-%zu, %zu shards\n\n",
              static_cast<unsigned long long>(total_requests), rsa_bits,
              shards);

  Env* env = Env::Default();
  ServerPki pki = ServerPki::Create(4, rsa_bits);

  std::printf("%8s %9s %9s %6s %11s %9s %9s %9s %7s\n", "clients", "sent",
              "accepted", "shed", "records/s", "p50(us)", "p95(us)",
              "p99(us)", "verify");
  bool all_pass = true;
  for (size_t clients : {1u, 8u, 64u, 512u}) {
    const uint64_t per_client =
        total_requests / clients == 0 ? 1 : total_requests / clients;
    auto result = RunPhase(env, root, pki, clients, per_client, shards);
    OrAbort(result.status());
    all_pass = all_pass && result->pass();
    std::printf("%8zu %9llu %9llu %6llu %11.0f %9.0f %9.0f %9.0f %7s\n",
                clients,
                static_cast<unsigned long long>(result->load.requests_sent),
                static_cast<unsigned long long>(result->load.accepted),
                static_cast<unsigned long long>(result->load.shed),
                result->load.records_per_second, result->p50, result->p95,
                result->p99,
                result->pass() ? "PASS" : "FAIL");
  }
  CleanRoot(env, root);

  std::printf(
      "\ngate: every phase must end with a clean cross-shard VerifyStore\n"
      "pass covering exactly the accepted record count (accepted == checked,\n"
      "zero issues, zero non-shed failures) -> %s\n",
      all_pass ? "PASS" : "FAIL");
  return all_pass ? 0 : 1;
}

}  // namespace
}  // namespace provdb::bench

int main(int argc, char** argv) {
  return provdb::bench::BenchMain(argc, argv, provdb::bench::Run);
}
