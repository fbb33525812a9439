// provdb — command-line tool for working with recipient bundles.
//
//   provdb demo <dir>               build a demo deployment: writes
//                                   bundle.bin, ca.key (CA public key),
//                                   certs.bin (participant certificates)
//   provdb inspect <bundle>         print the records of a bundle
//   provdb json <bundle>            dump a bundle as JSON
//   provdb verify <bundle> <ca> <certs>
//                                   run the recipient verification
//   provdb tamper <bundle> <out>    flip one byte of the newest record's
//                                   checksum (for demos)
//   provdb stats [--json]           run an instrumented workload touching
//                                   every subsystem, then print the
//                                   metrics snapshot (docs/OBSERVABILITY.md)
//
// Exit code 0 on success / verified; 1 on failure / tampering detected.
// Setting PROVDB_TRACE=/path/to/spans.jsonl streams trace spans there.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "common/hex.h"
#include "common/rng.h"
#include "common/varint.h"
#include "crypto/pki.h"
#include "observability/metrics.h"
#include "observability/trace.h"
#include "provenance/ingest_pipeline.h"
#include "provenance/json_export.h"
#include "provenance/query.h"
#include "provenance/subtree_hasher.h"
#include "provenance/tracked_database.h"
#include "provenance/verifier.h"
#include "storage/wal.h"

namespace provdb::cli {
namespace {

Result<Bytes> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IoError("cannot open " + path);
  }
  Bytes out;
  uint8_t buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.insert(out.end(), buf, buf + n);
  }
  std::fclose(f);
  return out;
}

Status WriteFile(const std::string& path, ByteView data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot open " + path + " for writing");
  }
  size_t written = std::fwrite(data.data(), 1, data.size(), f);
  std::fclose(f);
  if (written != data.size()) {
    return Status::IoError("short write to " + path);
  }
  return Status::OK();
}

Bytes SerializeCertificates(
    const std::vector<crypto::ParticipantCertificate>& certs) {
  Bytes out;
  AppendVarint64(&out, certs.size());
  for (const auto& cert : certs) {
    AppendVarint64(&out, cert.participant_id);
    AppendLengthPrefixed(&out, ByteView(cert.name));
    AppendLengthPrefixed(&out, cert.public_key.Serialize());
    AppendLengthPrefixed(&out, cert.ca_signature);
  }
  return out;
}

Result<std::vector<crypto::ParticipantCertificate>> ParseCertificates(
    ByteView data) {
  VarintReader reader(data);
  PROVDB_ASSIGN_OR_RETURN(uint64_t count, reader.ReadVarint64());
  std::vector<crypto::ParticipantCertificate> certs;
  for (uint64_t i = 0; i < count; ++i) {
    crypto::ParticipantCertificate cert;
    PROVDB_ASSIGN_OR_RETURN(cert.participant_id, reader.ReadVarint64());
    PROVDB_ASSIGN_OR_RETURN(Bytes name, reader.ReadLengthPrefixed());
    cert.name = ByteView(name).ToString();
    PROVDB_ASSIGN_OR_RETURN(Bytes key_raw, reader.ReadLengthPrefixed());
    PROVDB_ASSIGN_OR_RETURN(cert.public_key,
                            crypto::RsaPublicKey::Deserialize(key_raw));
    PROVDB_ASSIGN_OR_RETURN(cert.ca_signature, reader.ReadLengthPrefixed());
    certs.push_back(std::move(cert));
  }
  return certs;
}

int Demo(const std::string& dir) {
  Rng rng(0xDE110);
  auto ca = crypto::CertificateAuthority::Create(1024, &rng).value();
  auto alice = crypto::Participant::Create(1, "alice", 1024, &rng, ca).value();
  auto bob = crypto::Participant::Create(2, "bob", 1024, &rng, ca).value();

  provenance::TrackedDatabase db;
  auto doc = db.Insert(alice, storage::Value::String("draft-1")).value();
  db.Update(bob, doc, storage::Value::String("draft-2")).ok();
  db.Update(alice, doc, storage::Value::String("final")).ok();
  auto archive =
      db.Aggregate(bob, {doc}, storage::Value::String("archive-2026"))
          .value();

  auto bundle = db.ExportForRecipient(archive).value();
  Status s = WriteFile(dir + "/bundle.bin", bundle.Serialize());
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  WriteFile(dir + "/ca.key", ca.public_key().Serialize()).ok();
  WriteFile(dir + "/certs.bin",
            SerializeCertificates({alice.certificate(), bob.certificate()}))
      .ok();
  std::printf("wrote %s/bundle.bin, ca.key, certs.bin\n", dir.c_str());
  std::printf("try: provdb verify %s/bundle.bin %s/ca.key %s/certs.bin\n",
              dir.c_str(), dir.c_str(), dir.c_str());
  return 0;
}

int Inspect(const std::string& path) {
  auto raw = ReadFile(path);
  if (!raw.ok()) {
    std::fprintf(stderr, "%s\n", raw.status().ToString().c_str());
    return 1;
  }
  auto bundle = provenance::RecipientBundle::Deserialize(*raw);
  if (!bundle.ok()) {
    std::fprintf(stderr, "malformed bundle: %s\n",
                 bundle.status().ToString().c_str());
    return 1;
  }
  std::printf("subject object: %llu\n",
              static_cast<unsigned long long>(bundle->subject));
  std::printf("data snapshot:  %zu node(s)\n", bundle->data.nodes().size());
  std::printf("records:        %zu\n\n", bundle->records.size());
  for (const auto& rec : bundle->records) {
    std::printf("  %s\n", rec.ToString().c_str());
  }
  return 0;
}

int Json(const std::string& path) {
  auto raw = ReadFile(path);
  if (!raw.ok()) {
    std::fprintf(stderr, "%s\n", raw.status().ToString().c_str());
    return 1;
  }
  auto bundle = provenance::RecipientBundle::Deserialize(*raw);
  if (!bundle.ok()) {
    std::fprintf(stderr, "malformed bundle: %s\n",
                 bundle.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", provenance::BundleToJson(*bundle).c_str());
  return 0;
}

int Verify(const std::string& bundle_path, const std::string& ca_path,
           const std::string& certs_path) {
  auto bundle_raw = ReadFile(bundle_path);
  auto ca_raw = ReadFile(ca_path);
  auto certs_raw = ReadFile(certs_path);
  if (!bundle_raw.ok() || !ca_raw.ok() || !certs_raw.ok()) {
    std::fprintf(stderr, "cannot read inputs\n");
    return 1;
  }
  auto bundle = provenance::RecipientBundle::Deserialize(*bundle_raw);
  auto ca_key = crypto::RsaPublicKey::Deserialize(*ca_raw);
  auto certs = ParseCertificates(*certs_raw);
  if (!bundle.ok() || !ca_key.ok() || !certs.ok()) {
    std::fprintf(stderr, "malformed inputs\n");
    return 1;
  }

  crypto::ParticipantRegistry registry(*ca_key);
  for (const auto& cert : *certs) {
    Status s = registry.Register(cert);
    if (!s.ok()) {
      std::fprintf(stderr, "certificate for '%s' rejected: %s\n",
                   cert.name.c_str(), s.ToString().c_str());
      return 1;
    }
  }

  provenance::ProvenanceVerifier verifier(&registry);
  auto report = verifier.Verify(*bundle);
  std::printf("%s\n", report.ToString().c_str());
  return report.ok() ? 0 : 1;
}

int Tamper(const std::string& in_path, const std::string& out_path) {
  auto raw = ReadFile(in_path);
  if (!raw.ok()) {
    std::fprintf(stderr, "%s\n", raw.status().ToString().c_str());
    return 1;
  }
  auto bundle = provenance::RecipientBundle::Deserialize(*raw);
  if (!bundle.ok() || bundle->records.empty()) {
    std::fprintf(stderr, "malformed or empty bundle\n");
    return 1;
  }
  bundle->records.back().checksum[0] ^= 0x01;
  Status s = WriteFile(out_path, bundle->Serialize());
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote tampered bundle to %s\n", out_path.c_str());
  return 0;
}

/// Runs one workload that exercises every instrumented subsystem —
/// checksum signing, subtree hashing (Basic and Economical), WAL
/// append/sync/recovery, parallel verification, and a store audit — then
/// prints the global metrics snapshot. The workload is fixed-seed, so
/// the counter section of the output is deterministic.
int Stats(bool as_json) {
  Rng rng(0x57A75);
  auto ca = crypto::CertificateAuthority::Create(1024, &rng).value();
  auto alice = crypto::Participant::Create(1, "alice", 1024, &rng, ca).value();
  auto bob = crypto::Participant::Create(2, "bob", 1024, &rng, ca).value();
  crypto::ParticipantRegistry registry(ca.public_key());
  registry.Register(alice.certificate()).ok();
  registry.Register(bob.certificate()).ok();

  std::filesystem::path wal_dir =
      std::filesystem::temp_directory_path() / "provdb-stats-wal";
  std::error_code ec;
  std::filesystem::remove_all(wal_dir, ec);

  // A durable tracked database: every operation returns once its records
  // are fsynced into the one-shard pipeline's WAL. The pipeline seals
  // checkpoints with alice's key when asked (CheckpointNow below).
  crypto::RsaSignatureVerifier seal_verifier(alice.public_key());
  provenance::IngestOptions wal_options;
  wal_options.checkpoint.signer = &alice.signer();
  wal_options.checkpoint.sealer_id = alice.id();
  wal_options.checkpoint.verifier = &seal_verifier;
  auto pipeline_or = provenance::IngestPipeline::Open(
      storage::Env::Default(), wal_dir.string(), wal_options);
  if (!pipeline_or.ok()) {
    std::fprintf(stderr, "cannot open WAL under %s\n", wal_dir.c_str());
    return 1;
  }
  std::unique_ptr<provenance::IngestPipeline> durable =
      std::move(pipeline_or).value();
  // One shard and the default hash algorithm: Open cannot refuse these.
  std::unique_ptr<provenance::TrackedDatabase> tracked =
      provenance::TrackedDatabase::Open(durable.get()).value();
  provenance::TrackedDatabase& db = *tracked;

  std::vector<storage::ObjectId> docs;
  for (int i = 0; i < 8; ++i) {
    docs.push_back(
        db.Insert(alice, storage::Value::Int(i)).value());
  }
  for (int i = 0; i < 8; ++i) {
    db.Update(bob, docs[static_cast<size_t>(i % 4)],
              storage::Value::Int(100 + i))
        .ok();
  }
  auto archive =
      db.Aggregate(bob, {docs[0], docs[1], docs[2]},
                   storage::Value::String("archive"))
          .value();

  auto bundle = db.ExportForRecipient(archive).value();
  provenance::ProvenanceVerifier verifier(&registry,
                                          crypto::HashAlgorithm::kSha1,
                                          ParallelismConfig{4});
  auto report = verifier.Verify(bundle);
  auto audit = verifier.Audit(db.OpenSnapshot(), db.tree());

  // Checkpoint + bounded recovery: seal a signed snapshot (rolling the
  // WAL and garbage-collecting the segments it covers), append a small
  // suffix, then recover from checkpoint + suffix — populating the
  // checkpoint.* and wal.gc.* instruments.
  if (!durable->CheckpointNow().ok()) {
    std::fprintf(stderr, "WAL checkpoint failed\n");
    return 1;
  }
  for (int i = 0; i < 4; ++i) {
    db.Update(alice, docs[static_cast<size_t>(4 + i % 4)],
              storage::Value::Int(200 + i))
        .ok();
  }
  auto recovered = provenance::ShardedProvenanceStore::Recover(
      storage::Env::Default(), wal_dir.string(), 1, nullptr, &seal_verifier);
  std::filesystem::remove_all(wal_dir, ec);
  if (!report.ok() || !audit.ok() || !recovered.ok() ||
      recovered->record_count() != db.provenance().record_count()) {
    std::fprintf(stderr, "stats workload failed its own verification\n");
    return 1;
  }

  // Sharded batched ingest: a small 2-shard group-commit run, drained
  // and verified across shards (populates the ingest.* instruments).
  std::filesystem::path ingest_dir =
      std::filesystem::temp_directory_path() / "provdb-stats-ingest";
  std::filesystem::remove_all(ingest_dir, ec);
  storage::TreeStore ingest_tree;
  provenance::SubtreeHasher ingest_hasher(&ingest_tree,
                                          crypto::HashAlgorithm::kSha1);
  provenance::IngestOptions ingest_options;
  ingest_options.num_shards = 2;
  ingest_options.max_batch_records = 4;
  ingest_options.signing.num_threads = 2;
  ingest_options.checkpoint.every_records = 4;
  ingest_options.checkpoint.signer = &alice.signer();
  ingest_options.checkpoint.sealer_id = alice.id();
  ingest_options.checkpoint.verifier = &seal_verifier;
  auto pipeline = provenance::IngestPipeline::Open(
      storage::Env::Default(), ingest_dir.string(), ingest_options);
  if (!pipeline.ok()) {
    std::fprintf(stderr, "cannot open ingest pipeline under %s\n",
                 ingest_dir.c_str());
    return 1;
  }
  for (int i = 0; i < 10; ++i) {
    storage::ObjectId id =
        ingest_tree.Insert(storage::Value::Int(i)).value();
    provenance::IngestRequest insert;
    insert.op = provenance::OperationType::kInsert;
    insert.object = id;
    insert.post_hash = ingest_hasher.HashSubtreeBasic(id).value();
    insert.participant = &alice;
    provenance::IngestRequest update;
    update.op = provenance::OperationType::kUpdate;
    update.object = id;
    update.has_pre_hash = true;
    update.pre_hash = insert.post_hash;
    ingest_tree.Update(id, storage::Value::Int(100 + i)).ok();
    update.post_hash = ingest_hasher.HashSubtreeBasic(id).value();
    update.participant = &bob;
    if (!(*pipeline)->Submit(insert).ok() ||
        !(*pipeline)->Submit(update).ok()) {
      std::fprintf(stderr, "ingest pipeline rejected the stats workload\n");
      return 1;
    }
  }
  if (!(*pipeline)->Close().ok()) {
    std::fprintf(stderr, "ingest pipeline close failed\n");
    return 1;
  }
  // Verify the sharded run through a pinned snapshot — the live read
  // path (DESIGN.md §16) — which also exercises the epoch.* instruments
  // so they show up in the stats output.
  auto ingest_verify = [&] {
    provenance::StoreSnapshot snapshot = (*pipeline)->OpenSnapshot();
    return verifier.VerifyStore(snapshot);
  }();
  std::filesystem::remove_all(ingest_dir, ec);
  if (!ingest_verify.ok()) {
    std::fprintf(stderr, "sharded ingest failed verification:\n%s\n",
                 ingest_verify.ToString().c_str());
    return 1;
  }

  observability::MetricsRegistry& metrics = observability::GlobalMetrics();
  if (as_json) {
    std::printf("%s\n", metrics.SnapshotJson().c_str());
  } else {
    std::printf("%s", metrics.SnapshotText().c_str());
  }
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage:\n"
                 "  provdb demo <dir>\n"
                 "  provdb inspect <bundle>\n"
                 "  provdb json <bundle>\n"
                 "  provdb verify <bundle> <ca.key> <certs.bin>\n"
                 "  provdb tamper <bundle-in> <bundle-out>\n"
                 "  provdb stats [--json]\n");
    return 2;
  }
  observability::InitTraceFromEnv();
  std::string cmd = argv[1];
  if (cmd == "demo" && argc == 3) return Demo(argv[2]);
  if (cmd == "inspect" && argc == 3) return Inspect(argv[2]);
  if (cmd == "json" && argc == 3) return Json(argv[2]);
  if (cmd == "verify" && argc == 5) return Verify(argv[2], argv[3], argv[4]);
  if (cmd == "tamper" && argc == 4) return Tamper(argv[2], argv[3]);
  if (cmd == "stats" && argc == 2) return Stats(/*as_json=*/false);
  if (cmd == "stats" && argc == 3 && std::strcmp(argv[2], "--json") == 0) {
    return Stats(/*as_json=*/true);
  }
  std::fprintf(stderr, "unknown command or wrong arguments\n");
  return 2;
}

}  // namespace
}  // namespace provdb::cli

int main(int argc, char** argv) { return provdb::cli::Main(argc, argv); }
