// Append throughput of the durable write-ahead provenance log: what one
// fsync per record costs against batched durability points. No paper
// figure — this quantifies the group-commit trade-off documented in
// DESIGN.md §8/§12 so deployments can pick a batch size.
//
// A batched mode calls WalWriter::Sync after every `batch` appends,
// which is the durability point the ingest pipeline places once per
// shard and write-ahead (IngestOptions::max_batch_records caps a batch).
// After every mode a WalReader verify pass replays the log; a recovery
// error, an unclean report, or a recovered payload that differs from the
// one appended fails the bench — a throughput number for a log that does
// not recover is worthless.

// A second pass measures checkpoint-bounded recovery (DESIGN.md §13):
// the same store is recovered behind checkpoints taken at different
// points, and the bench asserts the replayed WAL suffix shrinks with the
// checkpoint horizon — recovery cost is O(suffix), not O(history).

#include <string>
#include <vector>

#include "bench_common.h"
#include "crypto/signer.h"
#include "provenance/checkpoint.h"
#include "provenance/ingest_pipeline.h"
#include "provenance/serialization.h"
#include "storage/env.h"
#include "storage/wal.h"

namespace provdb::bench {
namespace {

using provdb::provenance::CheckpointWriter;
using provdb::provenance::ShardedProvenanceStore;
using provdb::provenance::ProvenanceRecord;
using storage::Env;
using storage::WalReader;
using storage::WalRecoveryReport;
using storage::WalWriter;

struct ModeResult {
  double seconds = 0;
  uint64_t syncs = 0;
};

/// Appends every payload, syncing after every `batch` appends (batch 1 =
/// an fsync per record; batch 0 = only the final Sync in Close).
ModeResult RunMode(Env* env, const std::string& dir,
                   const std::vector<Bytes>& payloads, uint64_t batch) {
  WalWriter wal = WalWriter::Open(env, dir).value();
  ModeResult result;
  Stopwatch watch;
  for (const Bytes& payload : payloads) {
    OrAbort(wal.Append(payload));
    if (batch > 0 && wal.appended_records() % batch == 0) {
      OrAbort(wal.Sync());
      ++result.syncs;
    }
  }
  if (wal.synced_records() < wal.appended_records()) {
    ++result.syncs;  // the Close below syncs the tail
  }
  OrAbort(wal.Close());  // Close syncs: every mode ends fully durable
  result.seconds = watch.ElapsedSeconds();
  return result;
}

/// Replays the finished log and aborts the bench unless recovery is
/// clean and byte-complete. Returns so the caller can print a check.
void VerifyLog(Env* env, const std::string& dir,
               const std::vector<Bytes>& payloads, const char* mode) {
  auto reader = WalReader::Open(env, dir);
  if (!reader.ok()) {
    std::fprintf(stderr, "FATAL: mode '%s': WAL verify pass failed: %s\n",
                 mode, reader.status().ToString().c_str());
    std::abort();
  }
  const std::vector<ByteView>& recovered = reader->payloads();
  size_t matching = 0;
  while (matching < recovered.size() && matching < payloads.size() &&
         recovered[matching] == ByteView(payloads[matching])) {
    ++matching;
  }
  if (!reader->report().clean() || recovered.size() != payloads.size() ||
      matching != payloads.size()) {
    std::fprintf(stderr,
                 "FATAL: mode '%s': recovered %zu records, expected %zu; "
                 "first %zu match byte for byte (report: %s)\n",
                 mode, recovered.size(), payloads.size(), matching,
                 reader->report().detail.c_str());
    std::abort();
  }
}

void CleanDir(Env* env, const std::string& dir) {
  auto names = env->ListDir(dir);
  if (!names.ok()) return;
  for (const std::string& name : *names) {
    OrAbort(env->RemoveFile(dir + "/" + name));
  }
}

/// A synthetic single-record chain (no RSA signing — the pass measures
/// log replay and snapshot load, not signature cost).
ProvenanceRecord MakeRecord(uint64_t i) {
  ProvenanceRecord rec;
  rec.seq_id = 0;
  rec.participant = 1;
  rec.op = provenance::OperationType::kInsert;
  rec.output = provenance::ObjectState{
      static_cast<storage::ObjectId>(i + 1),
      crypto::Digest::FromBytes(Bytes(20, static_cast<uint8_t>(i)))};
  rec.checksum = Bytes(128, static_cast<uint8_t>(i * 7 + 1));
  return rec;
}

/// Recovers a `total`-record one-shard store under `root` whose first
/// `total - suffix` records sit behind a sealed checkpoint. Asserts the
/// structural invariant that makes the wall-clock shape inevitable:
/// exactly `suffix` WAL frames are replayed, everything else loads from
/// the snapshot.
void RecoveryPass(Env* env, const std::string& root, uint64_t total,
                  uint64_t suffix, const BenchPki& pki) {
  OrAbort(env->CreateDir(root));
  const std::string dir = ShardedProvenanceStore::ShardDirName(root, 0);
  CleanDir(env, dir);
  const uint64_t prefix = total - suffix;
  {
    ShardedProvenanceStore store(1);
    WalWriter wal = WalWriter::Open(env, dir).value();
    // Write-ahead by hand, as an ingest pipeline flush does: the record
    // frame reaches the log before the record reaches the store.
    auto add = [&](uint64_t i) {
      ProvenanceRecord rec = MakeRecord(i);
      OrAbort(wal.Append(provenance::EncodeWalRecordEntry(rec)));
      OrAbort(store.shard(0).AddRecord(std::move(rec)).status());
    };
    for (uint64_t i = 0; i < prefix; ++i) add(i);
    if (prefix > 0) {
      // Roll -> seal -> GC, the same order as IngestPipeline::CheckpointNow.
      uint64_t horizon = wal.RollSegment().value();
      store.PublishAll();
      const provenance::StoreSnapshot snapshot = store.OpenSnapshot();
      OrAbort(CheckpointWriter::Write(env, dir, snapshot.shard_view(0),
                                      horizon, pki.participant->signer(),
                                      pki.participant->id()));
      OrAbort(provenance::RemoveStaleCheckpoints(env, dir, horizon));
      OrAbort(wal.GarbageCollect(horizon));
    }
    for (uint64_t i = prefix; i < total; ++i) add(i);
    OrAbort(wal.Close());
  }

  crypto::RsaSignatureVerifier verifier(pki.participant->public_key());
  std::vector<WalRecoveryReport> reports;
  Stopwatch watch;
  auto recovered =
      ShardedProvenanceStore::Recover(env, root, 1, &reports, &verifier);
  const double seconds = watch.ElapsedSeconds();
  const WalRecoveryReport report =
      reports.empty() ? WalRecoveryReport() : reports[0];
  if (!recovered.ok() || recovered->record_count() != total ||
      report.records != suffix || report.checkpoint_records != prefix) {
    std::fprintf(stderr,
                 "FATAL: recovery pass (suffix %llu): %s — recovered %llu "
                 "records, replayed %llu frames, %llu from checkpoint\n",
                 static_cast<unsigned long long>(suffix),
                 recovered.status().ToString().c_str(),
                 static_cast<unsigned long long>(
                     recovered.ok() ? recovered->record_count() : 0),
                 static_cast<unsigned long long>(report.records),
                 static_cast<unsigned long long>(report.checkpoint_records));
    std::abort();
  }
  std::printf("%14llu %14llu %14llu %10.4f\n",
              static_cast<unsigned long long>(prefix),
              static_cast<unsigned long long>(suffix),
              static_cast<unsigned long long>(report.records), seconds);
}

int Run(int argc, char** argv) {
  Flags flags(argc, argv);
  const size_t records = static_cast<size_t>(flags.GetInt("records", 20000));
  const size_t payload_bytes =
      static_cast<size_t>(flags.GetInt("payload", 300));
  const std::string dir =
      flags.GetString("dir", "/tmp/provdb_bench_wal_append");

  PrintHeader("WAL append throughput: sync-every-record vs group commit",
              "durability ablation (no paper figure)");
  std::printf(
      "%zu records x %zu B payload (~ one encoded provenance record)\n\n",
      records, payload_bytes);

  Rng rng(0x5A1);
  std::vector<Bytes> payloads(records);
  for (Bytes& payload : payloads) {
    rng.NextBytes(&payload, payload_bytes);
  }

  Env* env = Env::Default();
  struct Mode {
    const char* name;
    uint64_t batch;
  };
  const Mode kModes[] = {
      {"sync every append", 1},
      {"group commit 10", 10},
      {"group commit 100", 100},
      {"group commit 1000", 1000},
      {"sync at close only", 0},
  };

  std::printf("%-22s %10s %12s %12s %8s %8s\n", "mode", "seconds",
              "records/s", "MB/s", "fsyncs", "verify");
  const double total_mb = static_cast<double>(records * payload_bytes) / 1e6;
  for (const Mode& mode : kModes) {
    CleanDir(env, dir);
    ModeResult result = RunMode(env, dir, payloads, mode.batch);
    VerifyLog(env, dir, payloads, mode.name);
    std::printf("%-22s %10.3f %12.0f %12.1f %8llu %8s\n", mode.name,
                result.seconds,
                static_cast<double>(records) / result.seconds,
                total_mb / result.seconds,
                static_cast<unsigned long long>(result.syncs), "ok");
  }
  CleanDir(env, dir);

  std::printf(
      "\nshape check: throughput rises with batch size and saturates once\n"
      "fsync cost is amortized; sync-every-append pays one fsync per\n"
      "record and bounds loss to zero acknowledged records, group commit\n"
      "bounds loss to one batch. every mode's log passed the verify pass.\n");

  // Checkpoint-bounded recovery: same total history, shrinking WAL
  // suffix behind a sealed checkpoint. The replayed-frames column is
  // asserted equal to the suffix — the structural proof that recovery is
  // O(delta) — and the seconds column shows the wall-clock consequence.
  const uint64_t recovery_records =
      static_cast<uint64_t>(flags.GetInt("recovery_records", 6000));
  std::printf(
      "\ncheckpoint-bounded recovery (%llu records total, DESIGN.md §13)\n",
      static_cast<unsigned long long>(recovery_records));
  std::printf("%14s %14s %14s %10s\n", "in checkpoint", "wal suffix",
              "replayed", "seconds");
  BenchPki pki = BenchPki::Create();
  const uint64_t kSuffixes[] = {recovery_records, recovery_records / 2,
                                recovery_records / 10, 0};
  const std::string recovery_root = dir + "_recovery";
  for (uint64_t suffix : kSuffixes) {
    RecoveryPass(env, recovery_root, recovery_records, suffix, pki);
  }
  CleanDir(env, ShardedProvenanceStore::ShardDirName(recovery_root, 0));
  std::printf(
      "\nshape check: replayed frames equal the WAL suffix at every row\n"
      "(asserted), so recovery cost tracks the un-checkpointed delta, not\n"
      "total history; the full-suffix row is the old bounded-only cost.\n");
  return 0;
}

}  // namespace
}  // namespace provdb::bench

int main(int argc, char** argv) {
  return provdb::bench::BenchMain(argc, argv, provdb::bench::Run);
}
