#ifndef PROVDB_PROVENANCE_VERIFIER_H_
#define PROVDB_PROVENANCE_VERIFIER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "crypto/pki.h"
#include "observability/metrics.h"
#include "provenance/bundle.h"
#include "provenance/checksum.h"
#include "provenance/record.h"
#include "provenance/snapshot.h"
#include "storage/tree_store.h"

namespace provdb::provenance {

/// Classification of verification failures, each annotated with the §2.2
/// requirement whose violation it witnesses.
enum class IssueKind {
  /// The shipped data does not hash to the latest record's output — the
  /// object was modified without provenance (R4) or the provenance was
  /// re-attributed to different data (R5).
  kDataHashMismatch,
  /// The snapshot root is not the bundle subject (re-attribution, R5).
  kSubjectMismatch,
  /// The bundle has no records for the subject at all.
  kMissingRecords,
  /// An update's input state does not match the previous record's output —
  /// a record was removed (R2/R7), inserted (R3/R6), or its values
  /// modified (R1).
  kChainLinkBroken,
  /// seqIDs of a chain are not the required consecutive sequence.
  kSeqViolation,
  /// A record's checksum fails signature verification (R1, R8).
  kBadSignature,
  /// The signing participant has no CA-endorsed certificate (R8).
  kUnknownParticipant,
  /// A record is structurally invalid (e.g. update without input).
  kMalformedRecord,
  /// An aggregation input cannot be resolved to any record in the bundle,
  /// yet a previous checksum was signed for it.
  kAggregateInputUnresolved,
  /// The data snapshot itself is structurally corrupt.
  kSnapshotMalformed,
};

std::string_view IssueKindName(IssueKind kind);

/// One verification failure.
struct VerificationIssue {
  IssueKind kind;
  storage::ObjectId object = storage::kInvalidObjectId;
  SeqId seq_id = 0;
  std::string message;

  std::string ToString() const;
};

/// Outcome of verifying a recipient bundle.
struct VerificationReport {
  std::vector<VerificationIssue> issues;
  uint64_t records_checked = 0;
  uint64_t signatures_verified = 0;

  bool ok() const { return issues.empty(); }
  bool HasIssue(IssueKind kind) const;
  std::string ToString() const;
};

/// Core of check 2 (§3): given per-object record chains (each sorted by
/// seqID), recompute every checksum payload and verify every signature,
/// appending issues and counters to `report`. Every ProvenanceVerifier
/// entry point runs its check 2 through here.
///
/// One call is one run: it builds one RsaSignatureVerifier per
/// registered participant (ParticipantRegistry::MakeVerifiers), and every
/// chain shares them read-only. Chains are per-object and self-contained
/// (§3.2), so each is verified as one OrderedFanOut item over `pool`;
/// per-chain results merge in ascending object-id order — and issues
/// within a chain stay in seqID order — so the report is byte-identical
/// to the sequential one.
void VerifyRecordChains(const crypto::ParticipantRegistry& registry,
                        const ChecksumEngine& engine,
                        const RecordChains& chains, VerificationReport* report,
                        ThreadPool* pool = nullptr);

/// The verification procedure (§3):
///   1. the data object matches the output of its most recent provenance
///      record, and
///   2. every stored checksum re-verifies from the record's input/output
///      states and the previous checksum(s) under the acting participant's
///      certified public key.
/// Together these detect every attack in the threat model (R1–R8), as
/// argued in §3.1. A recipient runs both over a bundle (Verify); the
/// store runs check 2 over a pinned snapshot (VerifyStore), over one
/// object's provenance object (VerifyObject), or both checks in place
/// against the live tree (Audit).
///
/// Records are read only from a bundle value or a pinned snapshot, so no
/// entry point races ingest, takes a store lock or blocks a writer.
/// Audit's live `tree` must not change while the audit runs.
class ProvenanceVerifier {
 public:
  /// `registry` resolves participant ids to CA-endorsed public keys and
  /// must outlive the verifier. With `parallelism.num_threads > 1` the
  /// verifier owns a ThreadPool and fans per-object chain verification
  /// and the audit's live-object sweep out across it; every report is
  /// identical to the sequential one.
  ProvenanceVerifier(const crypto::ParticipantRegistry* registry,
                     crypto::HashAlgorithm alg = crypto::HashAlgorithm::kSha1,
                     ParallelismConfig parallelism = {});

  /// Runs both checks over `bundle` and reports every issue found (the
  /// verifier does not stop at the first failure). [[nodiscard]]: an
  /// unread report is an undetected tamper.
  [[nodiscard]] VerificationReport Verify(const RecipientBundle& bundle) const;

  /// Check 2 over every chain in a pinned snapshot.
  [[nodiscard]] VerificationReport VerifyStore(
      const StoreSnapshot& snapshot) const;

  /// Check 2 over `subject`'s provenance object in a pinned snapshot
  /// (StoreSnapshot::ExtractProvenance: its chain plus every aggregation
  /// input's chain up to the matching state), grouped as Verify groups a
  /// bundle, so a subject none of whose records claims it as output is
  /// kMissingRecords. kNotFound when the subject has no chain.
  [[nodiscard]] Result<VerificationReport> VerifyObject(
      const StoreSnapshot& snapshot, storage::ObjectId subject) const;

  /// In-place audit of a whole deployment: check 2 over every chain of a
  /// pinned snapshot (TrackedDatabase::OpenSnapshot,
  /// IngestPipeline::OpenSnapshot, ...), then check 1 applied to the live
  /// `tree` — every live object with a chain must hash to its latest
  /// record's output state. Chain issues come first, then live-object
  /// issues, each in object-id order. Run it periodically (or before
  /// exporting bundles) to catch tampering of the provenance database
  /// itself, not just of shipped bundles.
  [[nodiscard]] VerificationReport Audit(const StoreSnapshot& snapshot,
                                         const storage::TreeStore& tree) const;

 private:
  /// One check-2 run over `chains` under the verify.* run instruments.
  VerificationReport VerifyChains(const RecordChains& chains) const;

  const crypto::ParticipantRegistry* registry_;
  ChecksumEngine engine_;
  std::unique_ptr<ThreadPool> pool_;  // null when sequential

  // Whole-run observability (docs/OBSERVABILITY.md); per-chain counters
  // live inside VerifyRecordChains. The audit.* instruments cover Audit
  // and its live-object sweep.
  observability::Counter* runs_;
  observability::Histogram* run_latency_;
  observability::Counter* audit_runs_;
  observability::Counter* live_checks_;
  observability::Counter* audit_issues_;
  observability::Histogram* audit_latency_;
};

}  // namespace provdb::provenance

#endif  // PROVDB_PROVENANCE_VERIFIER_H_
