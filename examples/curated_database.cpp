// Curated scientific database example: transactional *complex operations*
// (§4.4), Basic vs Economical hashing metrics (§4.3), and durable
// provenance — sealing the record store with its checksums into a signed
// checkpoint on disk, reloading it, and verifying after the round trip.
//
// Models a small curated genome-annotation table maintained by two
// curators over several editing sessions, the usage pattern §4.4's
// transactional-storage idea comes from (Buneman et al.).

#include <cstdio>

#include "common/rng.h"
#include "crypto/pki.h"
#include "example_util.h"
#include "provenance/checkpoint.h"
#include "provenance/tracked_database.h"
#include "provenance/verifier.h"
#include "storage/env.h"

using namespace provdb;

int main() {
  provdb::examples::InitObservability();
  std::printf("curated database — complex operations & durable provenance\n");
  std::printf("===========================================================\n\n");

  Rng rng(1859);
  auto ca = crypto::CertificateAuthority::Create(1024, &rng).value();
  auto ada = crypto::Participant::Create(1, "curator ada", 1024, &rng, ca)
                 .value();
  auto grace = crypto::Participant::Create(2, "curator grace", 1024, &rng, ca)
                   .value();
  crypto::ParticipantRegistry registry(ca.public_key());
  examples::OrDie(registry.Register(ada.certificate()));
  examples::OrDie(registry.Register(grace.certificate()));

  provenance::TrackedDatabase db;

  // Session 1 (ada): create the annotation table with three gene rows.
  // One complex operation = one editing session; each surviving object
  // gets exactly one record documenting its session-wide before/after.
  examples::OrDie(db.BeginComplexOperation(ada));
  auto root = db.Insert(ada, storage::Value::String("genome-annotations"))
                  .value();
  std::vector<storage::ObjectId> genes;
  const char* names[] = {"BRCA2", "TP53", "EGFR"};
  for (const char* name : names) {
    auto gene = db.Insert(ada, storage::Value::String(name), root).value();
    db.Insert(ada, storage::Value::String("protein_coding"), gene).value();
    db.Insert(ada, storage::Value::Int(0), gene).value();  // review count
    genes.push_back(gene);
  }
  examples::OrDie(db.EndComplexOperation());
  std::printf("session 1 (ada):   created %zu genes  -> %llu records, "
              "%.1f ms (%.1f ms signing)\n",
              genes.size(),
              static_cast<unsigned long long>(db.last_op_metrics().checksums),
              db.last_op_metrics().total_seconds() * 1e3,
              db.last_op_metrics().sign_seconds * 1e3);

  // Session 2 (grace): review pass — bump review counts, fix a biotype.
  examples::OrDie(db.BeginComplexOperation(grace));
  for (storage::ObjectId gene : genes) {
    const storage::TreeNode* node = db.tree().GetNode(gene).value();
    storage::ObjectId review_cell = node->children[1];
    examples::OrDie(db.Update(grace, review_cell, storage::Value::Int(1)));
  }
  {
    const storage::TreeNode* tp53 = db.tree().GetNode(genes[1]).value();
    examples::OrDie(db.Update(grace, tp53->children[0],
                              storage::Value::String("tumor_suppressor")));
  }
  examples::OrDie(db.EndComplexOperation());
  std::printf("session 2 (grace): review pass        -> %llu records, "
              "%.1f ms\n",
              static_cast<unsigned long long>(db.last_op_metrics().checksums),
              db.last_op_metrics().total_seconds() * 1e3);

  // Session 3 (ada): retire EGFR (delete its cells, then the row).
  examples::OrDie(db.BeginComplexOperation(ada));
  {
    const storage::TreeNode* egfr = db.tree().GetNode(genes[2]).value();
    std::vector<storage::ObjectId> cells = egfr->children;
    for (storage::ObjectId cell : cells) {
      examples::OrDie(db.Delete(ada, cell));
    }
    examples::OrDie(db.Delete(ada, genes[2]));
  }
  examples::OrDie(db.EndComplexOperation());
  std::printf("session 3 (ada):   retired EGFR       -> %llu records "
              "(deletes are cheap: no records for deleted objects)\n\n",
              static_cast<unsigned long long>(db.last_op_metrics().checksums));

  // --- Durable provenance -------------------------------------------------
  // The provenance database persists as a sealed checkpoint: CRC-framed
  // records under a signature over all of them.
  const std::string dir = "/tmp/provdb_curated_example";
  storage::Env* env = storage::Env::Default();
  examples::OrDie(env->CreateDir(dir));
  examples::OrDie(provenance::CheckpointWriter::Write(
      env, dir, db.OpenSnapshot().shard_view(0), /*wal_horizon=*/1,
      ada.signer(), ada.id()));
  const std::string path = provenance::CheckpointFileName(dir, 1);
  std::printf("sealed %llu provenance records (%llu bytes on disk) into %s\n",
              static_cast<unsigned long long>(
                  db.provenance().live_record_count()),
              static_cast<unsigned long long>(env->FileSize(path).value()),
              path.c_str());

  crypto::RsaSignatureVerifier seal_verifier(ada.public_key());
  provenance::ShardedProvenanceStore loaded(1);
  examples::OrDie(provenance::CheckpointReader::Load(env, path, seal_verifier,
                                                     &loaded.shard(0))
                      .status());
  const provenance::ProvenanceStore& reloaded = loaded.shard(0);
  std::printf("reloaded store: %llu records, paper-schema footprint "
              "%.1f KB\n\n",
              static_cast<unsigned long long>(reloaded.record_count()),
              reloaded.PaperSchemaBytes() / 1024.0);

  // Verify the live database state against the *reloaded* records.
  provenance::RecipientBundle bundle;
  bundle.subject = root;
  bundle.data =
      provenance::SubtreeSnapshot::Capture(db.tree(), root).value();
  bundle.records = reloaded.ExtractProvenance(root).value();

  provenance::ProvenanceVerifier verifier(&registry);
  auto report = verifier.Verify(bundle);
  std::printf("verification after disk round trip: %s\n",
              report.ToString().c_str());

  // Per-gene provenance survives too: BRCA2's own chain.
  auto brca2_chain = reloaded.ChainOf(genes[0]);
  std::printf("BRCA2's own chain has %zu records (insert + one per "
              "session that touched it)\n",
              brca2_chain.size());

  examples::OrDie(env->RemoveFile(path));
  return report.ok() ? 0 : 1;
}
