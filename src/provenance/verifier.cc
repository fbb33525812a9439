#include "provenance/verifier.h"

#include <algorithm>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "observability/trace.h"
#include "provenance/subtree_hasher.h"

namespace provdb::provenance {

std::string_view IssueKindName(IssueKind kind) {
  switch (kind) {
    case IssueKind::kDataHashMismatch:
      return "DataHashMismatch";
    case IssueKind::kSubjectMismatch:
      return "SubjectMismatch";
    case IssueKind::kMissingRecords:
      return "MissingRecords";
    case IssueKind::kChainLinkBroken:
      return "ChainLinkBroken";
    case IssueKind::kSeqViolation:
      return "SeqViolation";
    case IssueKind::kBadSignature:
      return "BadSignature";
    case IssueKind::kUnknownParticipant:
      return "UnknownParticipant";
    case IssueKind::kMalformedRecord:
      return "MalformedRecord";
    case IssueKind::kAggregateInputUnresolved:
      return "AggregateInputUnresolved";
    case IssueKind::kSnapshotMalformed:
      return "SnapshotMalformed";
  }
  return "Unknown";
}

std::string VerificationIssue::ToString() const {
  return std::string(IssueKindName(kind)) + " (object " +
         std::to_string(object) + ", seq " + std::to_string(seq_id) + "): " +
         message;
}

bool VerificationReport::HasIssue(IssueKind kind) const {
  for (const VerificationIssue& issue : issues) {
    if (issue.kind == kind) {
      return true;
    }
  }
  return false;
}

std::string VerificationReport::ToString() const {
  if (ok()) {
    return "OK (" + std::to_string(records_checked) + " records, " +
           std::to_string(signatures_verified) + " signatures verified)";
  }
  std::string out =
      "FAILED with " + std::to_string(issues.size()) + " issue(s):";
  for (const VerificationIssue& issue : issues) {
    out += "\n  - " + issue.ToString();
  }
  return out;
}

namespace {

using VerifierMap =
    std::map<crypto::ParticipantId, crypto::RsaSignatureVerifier>;

/// Groups `records` into per-object chains keyed by output object, each
/// in seqID order.
RecordChains GroupChains(const std::vector<const ProvenanceRecord*>& records) {
  RecordChains chains;
  for (const ProvenanceRecord* rec : records) {
    chains[rec->output.object_id].push_back(rec);
  }
  for (auto& [id, chain] : chains) {
    std::stable_sort(chain.begin(), chain.end(),
                     [](const ProvenanceRecord* a, const ProvenanceRecord* b) {
                       return a->seq_id < b->seq_id;
                     });
  }
  return chains;
}

/// Verification result of one per-object chain. Chains are self-contained
/// (§3.2): verifying one reads only its own records, the read-only `chains`
/// map (for aggregate-input resolution), and the run's verifiers — so these
/// results can be produced on any thread and merged in object-id order.
struct ChainCheckResult {
  std::vector<VerificationIssue> issues;
  uint64_t records_checked = 0;
  uint64_t signatures_verified = 0;
};

/// Per-chain instruments, shared by every run (all funnel through
/// VerifyRecordChains). Resolved once; recording is lock-free, so pool
/// workers verifying chains concurrently never contend.
struct ChainMetrics {
  observability::Counter* chains;
  observability::Counter* records;
  observability::Counter* signatures_ok;
  observability::Counter* signatures_bad;
  observability::Counter* issues;
  observability::Histogram* chain_latency;
};

const ChainMetrics& GetChainMetrics() {
  static const ChainMetrics* metrics = new ChainMetrics{
      observability::GlobalMetrics().counter("verify.chains"),
      observability::GlobalMetrics().counter("verify.records"),
      observability::GlobalMetrics().counter("verify.signatures.ok"),
      observability::GlobalMetrics().counter("verify.signatures.bad"),
      observability::GlobalMetrics().counter("verify.issues"),
      observability::GlobalMetrics().histogram("verify.chain.latency_us"),
  };
  return *metrics;
}

ChainCheckResult VerifyOneChain(
    const VerifierMap& verifiers, const ChecksumEngine& engine,
    const RecordChains& chains, storage::ObjectId object,
    const std::vector<const ProvenanceRecord*>& chain) {
  const ChainMetrics& metrics = GetChainMetrics();
  observability::ScopedLatencyTimer timer(metrics.chain_latency);
  ChainCheckResult report;
  auto add_issue = [&](IssueKind kind, storage::ObjectId obj, SeqId seq,
                       std::string message) {
    report.issues.push_back(
        VerificationIssue{kind, obj, seq, std::move(message)});
  };

  const ProvenanceRecord* prev = nullptr;
  // Reused across the chain's records, so rebuilding payloads allocates
  // no vector per record.
  std::vector<ByteView> prev_checksums;
  for (const ProvenanceRecord* rec : chain) {
    ++report.records_checked;

    // -- Structural validity ---------------------------------------
    bool malformed = false;
    if (rec->output.object_id != object) {
      // The chain key is the object the store committed the record
      // under; a record claiming a different output is re-attribution
      // (R5). Honest groupings key chains by output id, so this can
      // only fire when the stored record bytes were tampered after
      // commit (e.g. under a pinned snapshot's chain index).
      add_issue(IssueKind::kSubjectMismatch, object, rec->seq_id,
                "record claims output object " +
                    std::to_string(rec->output.object_id) +
                    " but is filed in the chain of object " +
                    std::to_string(object) + " (re-attribution, R5)");
      malformed = true;
    }
    if (rec->op == OperationType::kInsert && !rec->inputs.empty()) {
      add_issue(IssueKind::kMalformedRecord, object, rec->seq_id,
                "insert record must have no inputs");
      malformed = true;
    }
    if (rec->op == OperationType::kUpdate &&
        (rec->inputs.size() != 1 || rec->inputs[0].object_id != object)) {
      add_issue(IssueKind::kMalformedRecord, object, rec->seq_id,
                "update record must have exactly the object itself as "
                "input");
      malformed = true;
    }
    if (rec->op == OperationType::kAggregate) {
      if (rec->inputs.empty()) {
        add_issue(IssueKind::kMalformedRecord, object, rec->seq_id,
                  "aggregate record must have inputs");
        malformed = true;
      }
      for (size_t i = 1; i < rec->inputs.size(); ++i) {
        if (rec->inputs[i - 1].object_id >= rec->inputs[i].object_id) {
          add_issue(IssueKind::kMalformedRecord, object, rec->seq_id,
                    "aggregate inputs must follow the global total order");
          malformed = true;
          break;
        }
      }
    }
    if (malformed) {
      prev = rec;
      continue;
    }

    // -- seqID discipline (§2.1) ------------------------------------
    if (prev == nullptr) {
      if (rec->op == OperationType::kInsert && rec->seq_id != 0) {
        add_issue(IssueKind::kSeqViolation, object, rec->seq_id,
                  "insert must start its chain at seqID 0");
      }
    } else {
      if (rec->op != OperationType::kUpdate) {
        add_issue(IssueKind::kSeqViolation, object, rec->seq_id,
                  "only updates may continue an existing chain");
      } else if (rec->seq_id != prev->seq_id + 1) {
        add_issue(IssueKind::kSeqViolation, object, rec->seq_id,
                  "update seqID must increment by one (previous was " +
                      std::to_string(prev->seq_id) + ")");
      }
    }

    // -- Chain linkage (R2/R3/R6/R7) ---------------------------------
    if (rec->op == OperationType::kUpdate && prev != nullptr &&
        !(rec->inputs[0].state_hash == prev->output.state_hash)) {
      add_issue(IssueKind::kChainLinkBroken, object, rec->seq_id,
                "update input state does not match the previous record's "
                "output state");
    }

    // -- Checksum payload reconstruction -----------------------------
    prev_checksums.clear();
    if (rec->op == OperationType::kUpdate) {
      prev_checksums.push_back(prev != nullptr ? ByteView(prev->checksum)
                                               : ByteView());
    } else if (rec->op == OperationType::kAggregate) {
      // Resolve each input to the record that produced the exact
      // recorded state; its checksum is the signed "previous".
      SeqId max_input_seq = 0;
      for (const ObjectState& input : rec->inputs) {
        ByteView resolved;
        auto in_chain = chains.find(input.object_id);
        if (in_chain != chains.end()) {
          bool found = false;
          for (size_t i = in_chain->second.size(); i-- > 0;) {
            const ProvenanceRecord* cand = in_chain->second[i];
            if (cand->seq_id < rec->seq_id &&
                cand->output.state_hash == input.state_hash) {
              resolved = cand->checksum;
              if (cand->seq_id > max_input_seq) {
                max_input_seq = cand->seq_id;
              }
              found = true;
              break;
            }
          }
          if (!found) {
            add_issue(IssueKind::kAggregateInputUnresolved, object,
                      rec->seq_id,
                      "aggregation input " +
                          std::to_string(input.object_id) +
                          " has records in the bundle but none matching "
                          "the recorded input state");
          }
        }
        prev_checksums.push_back(resolved);
      }
      if (rec->seq_id != max_input_seq + 1) {
        add_issue(IssueKind::kSeqViolation, object, rec->seq_id,
                  "aggregate seqID must be 1 + max input seqID (" +
                      std::to_string(max_input_seq) + ")");
      }
    }
    const Bytes payload = engine.BuildPayload(*rec, prev_checksums);

    // -- Signature (R1, R8) ------------------------------------------
    auto verifier = verifiers.find(rec->participant);
    if (verifier == verifiers.end()) {
      add_issue(IssueKind::kUnknownParticipant, object, rec->seq_id,
                "participant " + std::to_string(rec->participant) +
                    " has no CA-endorsed certificate");
    } else {
      Status sig = verifier->second.Verify(payload, rec->checksum);
      if (!sig.ok()) {
        metrics.signatures_bad->Increment();
        add_issue(IssueKind::kBadSignature, object, rec->seq_id,
                  "checksum signature does not verify: " + sig.message());
      } else {
        ++report.signatures_verified;
      }
    }

    prev = rec;
  }
  metrics.chains->Increment();
  metrics.records->Add(report.records_checked);
  metrics.signatures_ok->Add(report.signatures_verified);
  metrics.issues->Add(report.issues.size());
  return report;
}

/// Check 1 for one live object: does subtree(object) still hash to the
/// latest record's output state? Reads only the tree, via a const hasher,
/// so it can run on any thread.
std::optional<VerificationIssue> CheckLiveObject(
    const SubtreeHasher& hasher, const storage::TreeStore& tree,
    storage::ObjectId object,
    const std::vector<const ProvenanceRecord*>& chain) {
  if (!tree.Contains(object)) {
    return std::nullopt;
  }
  Result<crypto::Digest> current = hasher.HashSubtreeBasic(object);
  if (!current.ok()) {
    return VerificationIssue{IssueKind::kSnapshotMalformed, object, 0,
                             current.status().message()};
  }
  const ProvenanceRecord* latest = chain.back();
  if (!(current.value() == latest->output.state_hash)) {
    return VerificationIssue{
        IssueKind::kDataHashMismatch, object, latest->seq_id,
        "live object state does not match its most recent provenance "
        "record (undocumented modification, R4)"};
  }
  return std::nullopt;
}

}  // namespace

void VerifyRecordChains(const crypto::ParticipantRegistry& registry,
                        const ChecksumEngine& engine,
                        const RecordChains& chains, VerificationReport* report,
                        ThreadPool* pool) {
  const VerifierMap verifiers = registry.MakeVerifiers(engine.algorithm());
  std::vector<ChainCheckResult> results = OrderedFanOut(
      pool, chains, [&](const RecordChains::value_type& entry) {
        return VerifyOneChain(verifiers, engine, chains, entry.first,
                              entry.second);
      });
  for (ChainCheckResult& result : results) {
    for (VerificationIssue& issue : result.issues) {
      report->issues.push_back(std::move(issue));
    }
    report->records_checked += result.records_checked;
    report->signatures_verified += result.signatures_verified;
  }
}

ProvenanceVerifier::ProvenanceVerifier(
    const crypto::ParticipantRegistry* registry, crypto::HashAlgorithm alg,
    ParallelismConfig parallelism)
    : registry_(registry),
      engine_(alg),
      runs_(observability::GlobalMetrics().counter("verify.runs")),
      run_latency_(
          observability::GlobalMetrics().histogram("verify.run.latency_us")),
      audit_runs_(observability::GlobalMetrics().counter("audit.runs")),
      live_checks_(observability::GlobalMetrics().counter("audit.live_checks")),
      audit_issues_(observability::GlobalMetrics().counter("audit.issues")),
      audit_latency_(
          observability::GlobalMetrics().histogram("audit.run.latency_us")) {
  if (!parallelism.sequential()) {
    pool_ = std::make_unique<ThreadPool>(
        static_cast<size_t>(parallelism.num_threads));
  }
}

VerificationReport ProvenanceVerifier::Verify(
    const RecipientBundle& bundle) const {
  observability::ScopedLatencyTimer timer(run_latency_);
  observability::TraceSpan run_span("verify.run");
  runs_->Increment();
  VerificationReport report;
  auto add_issue = [&](IssueKind kind, storage::ObjectId object, SeqId seq,
                       std::string message) {
    report.issues.push_back(
        VerificationIssue{kind, object, seq, std::move(message)});
  };
  std::vector<const ProvenanceRecord*> records;
  records.reserve(bundle.records.size());
  for (const ProvenanceRecord& rec : bundle.records) {
    records.push_back(&rec);
  }
  const RecordChains chains = GroupChains(records);

  // Check 1 (§3): the shipped data matches the most recent record.
  if (bundle.data.root() != bundle.subject) {
    add_issue(IssueKind::kSubjectMismatch, bundle.subject, 0,
              "data snapshot root " + std::to_string(bundle.data.root()) +
                  " is not the bundle subject");
  }
  auto subject_chain = chains.find(bundle.subject);
  if (subject_chain == chains.end() || subject_chain->second.empty()) {
    add_issue(IssueKind::kMissingRecords, bundle.subject, 0,
              "no provenance records for the subject object");
  } else {
    const ProvenanceRecord* latest = subject_chain->second.back();
    Result<crypto::Digest> data_hash =
        bundle.data.Hash(engine_.algorithm());
    if (!data_hash.ok()) {
      add_issue(IssueKind::kSnapshotMalformed, bundle.subject, 0,
                data_hash.status().message());
    } else if (data_hash.value() != latest->output.state_hash) {
      add_issue(IssueKind::kDataHashMismatch, bundle.subject, latest->seq_id,
                "data hash does not match the most recent provenance record "
                "(undocumented modification, or provenance re-attribution)");
    }
  }

  // Check 2 (§3): recompute every checksum, earliest first.
  VerifyRecordChains(*registry_, engine_, chains, &report, pool_.get());
  return report;
}

VerificationReport ProvenanceVerifier::VerifyStore(
    const StoreSnapshot& snapshot) const {
  return VerifyChains(snapshot.AllChains());
}

Result<VerificationReport> ProvenanceVerifier::VerifyObject(
    const StoreSnapshot& snapshot, storage::ObjectId subject) const {
  Result<std::vector<const ProvenanceRecord*>> records =
      snapshot.ExtractProvenance(subject);
  if (!records.ok()) {
    return Status::NotFound("no chain for object " + std::to_string(subject));
  }
  const RecordChains chains = GroupChains(records.value());
  VerificationReport report = VerifyChains(chains);
  if (chains.count(subject) == 0) {
    // Every record filed under the subject claims another output object.
    // No signature covers an insert's object id, so only this shows it.
    report.issues.insert(
        report.issues.begin(),
        VerificationIssue{IssueKind::kMissingRecords, subject, 0,
                          "no provenance records for the subject object"});
  }
  return report;
}

VerificationReport ProvenanceVerifier::VerifyChains(
    const RecordChains& chains) const {
  observability::ScopedLatencyTimer timer(run_latency_);
  observability::TraceSpan run_span("verify.run");
  runs_->Increment();
  VerificationReport report;
  VerifyRecordChains(*registry_, engine_, chains, &report, pool_.get());
  return report;
}

VerificationReport ProvenanceVerifier::Audit(
    const StoreSnapshot& snapshot, const storage::TreeStore& tree) const {
  observability::ScopedLatencyTimer timer(audit_latency_);
  observability::TraceSpan audit_span("audit.run");
  audit_runs_->Increment();
  VerificationReport report;
  const RecordChains chains = snapshot.AllChains();

  // Check 2 over every chain.
  VerifyRecordChains(*registry_, engine_, chains, &report, pool_.get());

  // Check 1, in place: live tracked objects must hash to their latest
  // record's output state. (Objects without chains are bootstrap data;
  // chains whose object is gone correspond to deletions, which legally
  // leave the final inherited ancestor records behind — those ancestors
  // still exist, so a missing object with a chain tail means its whole
  // subtree was removed; we only flag *live* mismatches, mirroring the
  // recipient-side guarantee.)
  const SubtreeHasher hasher(&tree, engine_.algorithm());
  std::vector<std::optional<VerificationIssue>> live = OrderedFanOut(
      pool_.get(), chains, [&](const RecordChains::value_type& entry) {
        return CheckLiveObject(hasher, tree, entry.first, entry.second);
      });
  for (std::optional<VerificationIssue>& issue : live) {
    live_checks_->Increment();
    if (issue.has_value()) {
      audit_issues_->Increment();
      report.issues.push_back(std::move(*issue));
    }
  }
  return report;
}

}  // namespace provdb::provenance
