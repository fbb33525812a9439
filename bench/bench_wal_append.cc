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

#include <string>
#include <vector>

#include "bench_common.h"
#include "storage/env.h"
#include "storage/wal.h"

namespace provdb::bench {
namespace {

using storage::Env;
using storage::WalReader;
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
  return 0;
}

}  // namespace
}  // namespace provdb::bench

int main(int argc, char** argv) {
  return provdb::bench::BenchMain(argc, argv, provdb::bench::Run);
}
