// Ablation for §3.2 "Local vs. Global Checksum Chaining". The paper argues
// for per-object chains on two grounds; this harness demonstrates both:
//
//  1. Concurrency: a global chain forces every participant to serialize
//     checksum generation (the signature must cover the latest global
//     checksum, so hash+sign sits inside the critical section). We measure
//     the serialized critical-section time per operation under both
//     designs and report the implied maximum multi-participant throughput.
//
//  2. Failure isolation: corrupting one record breaks verification of
//     everything chained after it. With local chains only the damaged
//     object is lost; with a global chain every object that appended later
//     becomes unverifiable.

#include <mutex>

#include "bench_common.h"
#include "provenance/chain.h"
#include "provenance/checksum.h"
#include "crypto/signer.h"

namespace provdb::bench {
namespace {

using provenance::ChecksumEngine;
using provenance::GlobalChainState;
using provenance::LocalChainState;

struct SimRecord {
  uint64_t object;
  crypto::Digest in_hash;
  crypto::Digest out_hash;
  Bytes prev;  // the previous checksum the signer saw
  Bytes checksum;
};

crypto::Digest StateHash(uint64_t object, uint64_t version) {
  Bytes raw;
  AppendFixed64(&raw, object);
  AppendFixed64(&raw, version);
  return crypto::HashBytes(crypto::HashAlgorithm::kSha1, raw);
}

int Run(int argc, char** argv) {
  Flags flags(argc, argv);
  const size_t objects = static_cast<size_t>(flags.GetInt("objects", 20));
  const size_t updates_per_object =
      static_cast<size_t>(flags.GetInt("updates", 10));

  PrintHeader("Local vs global checksum chaining",
              "§3.2 (design ablation; no paper figure)");
  std::printf("%zu objects x %zu updates each, RSA-1024/SHA-1\n\n", objects,
              updates_per_object);

  BenchPki pki = BenchPki::Create();
  ChecksumEngine engine;
  const crypto::RsaSigner& signer = pki.participant->signer();

  // ---- Part 1: serialized critical-section time ---------------------
  // Local chains: the only shared state is the per-object tail; distinct
  // objects never contend. Global chain: payload building + signing must
  // happen while holding the tail.
  {
    LocalChainState local;
    Stopwatch watch;
    for (size_t o = 0; o < objects; ++o) {
      for (size_t u = 0; u < updates_per_object; ++u) {
        auto tail = local.Get(o);
        Bytes payload = engine.BuildUpdatePayload(
            StateHash(o, u), StateHash(o, u + 1), tail.checksum);
        Bytes checksum = signer.Sign(payload).value();
        local.Set(o, u, std::move(checksum));
      }
    }
    double local_total = watch.ElapsedSeconds();

    GlobalChainState global;
    double serialized_seconds = 0;
    watch.Restart();
    for (size_t o = 0; o < objects; ++o) {
      for (size_t u = 0; u < updates_per_object; ++u) {
        global.WithLock([&](GlobalChainState& g) {
          Stopwatch critical;
          auto tail = g.Get();
          Bytes payload = engine.BuildUpdatePayload(
              StateHash(o, u), StateHash(o, u + 1), tail.checksum);
          Bytes checksum = signer.Sign(payload).value();
          g.Set(tail.seq_id + 1, std::move(checksum));
          serialized_seconds += critical.ElapsedSeconds();
          return 0;
        });
      }
    }
    double global_total = watch.ElapsedSeconds();
    size_t ops = objects * updates_per_object;

    std::printf("per-operation cost (single participant):\n");
    std::printf("  local chains:  %8.3f ms/op (no shared critical section)\n",
                local_total * 1e3 / static_cast<double>(ops));
    std::printf("  global chain:  %8.3f ms/op, of which %8.3f ms "
                "inside the global lock\n",
                global_total * 1e3 / static_cast<double>(ops),
                serialized_seconds * 1e3 / static_cast<double>(ops));
    double serialized_per_op = serialized_seconds / static_cast<double>(ops);
    std::printf(
        "\nimplied multi-participant throughput ceiling:\n"
        "  global chain:  %8.0f ops/s regardless of participant count "
        "(Amdahl: the\n                 signature covers the global tail, "
        "so signing serializes)\n"
        "  local chains:  scales with participants working on distinct "
        "objects\n",
        1.0 / serialized_per_op);
  }

  // ---- Part 2: failure isolation ------------------------------------
  // Scenario: object 0's provenance records are later pruned (exactly the
  // optimization footnote 3 allows for deleted objects) or corrupted.
  // With local chains nothing else references them; with a global chain,
  // every record whose signed "previous checksum" was one of object 0's
  // records can no longer be verified — and with randomly interleaved
  // appends those victims are spread across many objects.
  {
    Rng rng(0x1507);
    std::vector<uint64_t> append_order;
    for (size_t o = 0; o < objects; ++o) {
      for (size_t u = 0; u < updates_per_object; ++u) {
        append_order.push_back(o);
      }
    }
    for (size_t i = append_order.size(); i > 1; --i) {
      std::swap(append_order[i - 1], append_order[rng.NextBelow(i)]);
    }

    std::vector<SimRecord> local_records, global_records;
    std::map<uint64_t, uint64_t> version;
    LocalChainState local;
    GlobalChainState global;
    for (uint64_t o : append_order) {
      uint64_t u = version[o]++;
      SimRecord rec;
      rec.object = o;
      rec.in_hash = StateHash(o, u);
      rec.out_hash = StateHash(o, u + 1);

      rec.prev = local.Get(o).checksum;
      Bytes payload =
          engine.BuildUpdatePayload(rec.in_hash, rec.out_hash, rec.prev);
      rec.checksum = signer.Sign(payload).value();
      local.Set(o, u, rec.checksum);
      local_records.push_back(rec);

      SimRecord grec = rec;
      grec.prev = global.Get().checksum;
      Bytes gpayload =
          engine.BuildUpdatePayload(grec.in_hash, grec.out_hash, grec.prev);
      grec.checksum = signer.Sign(gpayload).value();
      global.WithLock([&](GlobalChainState& g) {
        g.Set(g.Get().seq_id + 1, grec.checksum);
        return 0;
      });
      global_records.push_back(grec);
    }

    // Prune object 0's records from both histories.
    auto prune = [](std::vector<SimRecord> records) {
      std::vector<SimRecord> out;
      for (SimRecord& rec : records) {
        if (rec.object != 0) out.push_back(std::move(rec));
      }
      return out;
    };
    std::vector<SimRecord> local_pruned = prune(local_records);
    std::vector<SimRecord> global_pruned = prune(global_records);

    // Re-verify from the surviving records only: a record is good if its
    // signature verifies over the payload rebuilt from the last surviving
    // predecessor's checksum.
    crypto::RsaSignatureVerifier verifier(pki.participant->public_key());
    auto count_verifiable_objects = [&](const std::vector<SimRecord>& records,
                                        bool global_chain) {
      std::map<uint64_t, Bytes> local_prev;
      Bytes global_prev;
      std::map<uint64_t, bool> object_ok;
      for (const SimRecord& rec : records) {
        Bytes& prev = global_chain ? global_prev : local_prev[rec.object];
        Bytes payload =
            engine.BuildUpdatePayload(rec.in_hash, rec.out_hash, prev);
        bool ok = verifier.Verify(payload, rec.checksum).ok();
        if (object_ok.find(rec.object) == object_ok.end()) {
          object_ok[rec.object] = true;
        }
        if (!ok) object_ok[rec.object] = false;
        prev = rec.checksum;
      }
      size_t good = 0;
      for (const auto& [object, ok] : object_ok) {
        if (ok) ++good;
      }
      return good;
    };

    size_t local_good = count_verifiable_objects(local_pruned, false);
    size_t global_good = count_verifiable_objects(global_pruned, true);
    std::printf(
        "\nfailure isolation (object 0's %zu records pruned, as footnote 3\n"
        "permits for deleted objects; appends were randomly interleaved):\n"
        "  local chains:  %zu of %zu remaining objects still fully verify\n"
        "  global chain:  %zu of %zu remaining objects still fully verify\n",
        updates_per_object, local_good, objects - 1, global_good,
        objects - 1);
    std::printf(
        "\nshape check: local chaining is unaffected by pruning another\n"
        "object's history; the global chain loses every object whose\n"
        "records chained directly onto a pruned record.\n");
  }
  return 0;
}

}  // namespace
}  // namespace provdb::bench

int main(int argc, char** argv) {
  return provdb::bench::BenchMain(argc, argv, provdb::bench::Run);
}
