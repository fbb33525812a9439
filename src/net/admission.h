#ifndef PROVDB_NET_ADMISSION_H_
#define PROVDB_NET_ADMISSION_H_

#include <cstdint>

#include "observability/metrics.h"

namespace provdb::net {

/// Admission control for the provenance server: a global in-flight byte
/// budget shared by every connection. A request is charged its frame size
/// when admitted; the charge is swapped for the response's size once the
/// response is built, and released when the response leaves the process
/// (flushed to the socket, or dropped with its session). Memory held on
/// behalf of remote peers is therefore bounded by `budget + one frame`
/// regardless of how many clients connect or how slowly they read.
///
/// Overload is shed, not queued: when a charge would exceed the budget,
/// Admit refuses and the server answers `kUnavailable` — a typed "retry
/// later", distinct from any client mistake. Not thread-safe by design:
/// every call happens on the server's poll thread (the single place
/// admission decisions are made), so the class needs no lock and a unit
/// test needs no server.
class AdmissionController {
 public:
  /// `budget_bytes` is the global in-flight ceiling. An oversized single
  /// request (> budget on an idle server) is still refused — the bound
  /// holds absolutely, so under a budget below the frame ceiling
  /// (kMaxFramePayload) a request larger than the budget is always shed.
  AdmissionController(uint64_t budget_bytes,
                      observability::MetricsRegistry* metrics);

  /// Tries to admit a request of `bytes`; false = shed (kUnavailable).
  bool Admit(uint64_t bytes);

  /// Records a shed that happened outside the byte budget (e.g. a full
  /// per-connection pending queue) so `server.requests.shed` counts
  /// every kUnavailable the server returns.
  void NoteShed() { shed_->Increment(); }

  /// Re-charges an admitted request: `from` bytes released, `to` charged.
  /// Used when the request's charge becomes its response's. The swap is
  /// unconditional — a response may momentarily overshoot the budget, but
  /// by at most the difference on one in-flight request, and no *new*
  /// work is admitted while over.
  void Swap(uint64_t from, uint64_t to);

  /// Releases a charge (response flushed or dropped).
  void Release(uint64_t bytes);

  uint64_t in_flight_bytes() const { return in_flight_; }
  uint64_t budget_bytes() const { return budget_; }

 private:
  uint64_t budget_;
  uint64_t in_flight_ = 0;

  // docs/OBSERVABILITY.md `server.*` inventory.
  observability::Gauge* in_flight_gauge_;
  observability::Counter* shed_;
};

}  // namespace provdb::net

#endif  // PROVDB_NET_ADMISSION_H_
