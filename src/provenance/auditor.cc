#include "provenance/auditor.h"

#include <future>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "observability/trace.h"

namespace provdb::provenance {

namespace {

/// Check 1 for one live object: does subtree(object) still hash to the
/// latest record's output state? Self-contained (reads only the tree, via
/// a const hasher), so it can run on any thread.
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

StoreAuditor::StoreAuditor(const crypto::ParticipantRegistry* registry,
                           crypto::HashAlgorithm alg,
                           ParallelismConfig parallelism)
    : registry_(registry),
      engine_(alg),
      runs_(observability::GlobalMetrics().counter("audit.runs")),
      live_checks_(observability::GlobalMetrics().counter("audit.live_checks")),
      issues_(observability::GlobalMetrics().counter("audit.issues")),
      run_latency_(
          observability::GlobalMetrics().histogram("audit.run.latency_us")) {
  if (!parallelism.sequential()) {
    pool_ = std::make_unique<ThreadPool>(
        static_cast<size_t>(parallelism.num_threads));
  }
}

VerificationReport StoreAuditor::Audit(const StoreSnapshot& snapshot,
                                       const storage::TreeStore& tree) const {
  observability::ScopedLatencyTimer audit_timer(run_latency_);
  observability::TraceSpan audit_span("audit.run");
  runs_->Increment();
  VerificationReport report;
  const std::map<storage::ObjectId, std::vector<const ProvenanceRecord*>>
      chains = snapshot.AllChains();

  // Check 2 over every chain.
  VerifyRecordChains(*registry_, engine_, chains, &report, pool_.get());

  // Check 1, in place: live tracked objects must hash to their latest
  // record's output state. (Objects without chains are bootstrap data;
  // chains whose object is gone correspond to deletions, which legally
  // leave the final inherited ancestor records behind — those ancestors
  // still exist, so a missing object with a chain tail means its whole
  // subtree was removed; we only flag *live* mismatches, mirroring the
  // recipient-side guarantee.)
  SubtreeHasher hasher(&tree, engine_.algorithm());
  if (pool_ == nullptr || pool_->size() <= 1 || chains.size() <= 1) {
    for (const auto& [object, chain] : chains) {
      std::optional<VerificationIssue> issue =
          CheckLiveObject(hasher, tree, object, chain);
      live_checks_->Increment();
      if (issue.has_value()) {
        issues_->Increment();
        report.issues.push_back(std::move(*issue));
      }
    }
    return report;
  }

  // Parallel sweep: one task per live chain object; futures collected in
  // map (= ascending object id) order keep the report byte-identical to
  // the sequential sweep.
  std::vector<std::future<std::optional<VerificationIssue>>> results;
  results.reserve(chains.size());
  for (auto it = chains.begin(); it != chains.end(); ++it) {
    const storage::ObjectId object = it->first;
    const std::vector<const ProvenanceRecord*>* chain = &it->second;
    results.push_back(pool_->Submit([&hasher, &tree, object, chain] {
      return CheckLiveObject(hasher, tree, object, *chain);
    }));
  }
  for (auto& result : results) {
    std::optional<VerificationIssue> issue = result.get();
    live_checks_->Increment();
    if (issue.has_value()) {
      issues_->Increment();
      report.issues.push_back(std::move(*issue));
    }
  }
  return report;
}

}  // namespace provdb::provenance
