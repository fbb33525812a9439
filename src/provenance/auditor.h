#ifndef PROVDB_PROVENANCE_AUDITOR_H_
#define PROVDB_PROVENANCE_AUDITOR_H_

#include <memory>

#include "common/thread_pool.h"
#include "crypto/pki.h"
#include "provenance/snapshot.h"
#include "provenance/subtree_hasher.h"
#include "provenance/verifier.h"
#include "storage/tree_store.h"

namespace provdb::provenance {

/// In-place audit of a whole deployment: where ProvenanceVerifier checks
/// one recipient bundle, the auditor sweeps the entire provenance store
/// and the live back-end database —
///
///   * every record chain re-verifies (the §3 check 2 over all objects),
///   * every live object whose chain exists currently hashes to its most
///     recent record's output state (check 1, applied in place), and
///   * every chain tail object that no longer exists is reported unless
///     its absence is explained by deletion semantics.
///
/// Run it periodically (or before exporting bundles) to catch tampering
/// of the provenance database itself, not just of shipped bundles.
///
/// With `parallelism.num_threads > 1` the sweep fans out across a
/// ThreadPool owned by the auditor — chains are independent (§3.2), and
/// check-1 rehashes of distinct live objects only read the tree — while
/// per-object results are merged in ascending object-id order, so the
/// report is byte-identical to a sequential audit.
class StoreAuditor {
 public:
  StoreAuditor(const crypto::ParticipantRegistry* registry,
               crypto::HashAlgorithm alg = crypto::HashAlgorithm::kSha1,
               ParallelismConfig parallelism = {});

  /// Audits a pinned snapshot (TrackedDatabase::OpenSnapshot,
  /// IngestPipeline::OpenSnapshot, ...) against the live `tree`: check 2
  /// over every chain, then the in-place check-1 sweep of live objects.
  /// `report.ok()` iff clean. The snapshot is an immutable commit-boundary
  /// cut, so this is safe while ingest is live and takes no store lock.
  /// [[nodiscard]]: an unread audit report is an undetected tamper.
  [[nodiscard]] VerificationReport Audit(const StoreSnapshot& snapshot,
                                         const storage::TreeStore& tree) const;

 private:
  const crypto::ParticipantRegistry* registry_;
  ChecksumEngine engine_;
  std::unique_ptr<ThreadPool> pool_;  // null when sequential

  // Audit-sweep observability (docs/OBSERVABILITY.md). Chain-level work
  // is counted by the shared verify.* instruments inside
  // VerifyRecordChains; these cover the audit-only live-object sweep.
  observability::Counter* runs_;
  observability::Counter* live_checks_;
  observability::Counter* issues_;
  observability::Histogram* run_latency_;
};

}  // namespace provdb::provenance

#endif  // PROVDB_PROVENANCE_AUDITOR_H_
