#ifndef PROVDB_PROVENANCE_CHAIN_H_
#define PROVDB_PROVENANCE_CHAIN_H_

#include <unordered_map>
#include <utility>

#include "common/bytes.h"
#include "common/thread_annotations.h"
#include "provenance/record.h"
#include "storage/tree_store.h"

namespace provdb::provenance {

/// Tracks, per data object, the tail of its checksum chain: the latest
/// seqID and latest checksum. This is the paper's preferred *local*
/// (per-object) chaining (§3.2): independent objects advance their chains
/// in parallel, and corruption of one object's chain does not impair
/// verification of others.
class LocalChainState {
 public:
  struct Tail {
    SeqId seq_id = 0;
    Bytes checksum;
    bool exists = false;
  };

  /// Tail for `id`; `exists == false` when the object has no chain yet
  /// (fresh object, or bootstrap data predating provenance collection).
  Tail Get(storage::ObjectId id) const {
    auto it = by_object_.find(id);
    return it == by_object_.end() ? Tail{} : it->second;
  }

  /// Advances the chain for `id`.
  void Set(storage::ObjectId id, SeqId seq, Bytes checksum) {
    by_object_[id] = Tail{seq, std::move(checksum), true};
  }

  /// Drops the chain of a deleted object (§2.1 footnote: a deleted
  /// object's provenance object is no longer relevant).
  void Erase(storage::ObjectId id) { by_object_.erase(id); }

  size_t size() const { return by_object_.size(); }

 private:
  std::unordered_map<storage::ObjectId, Tail> by_object_;
};

/// The rejected *global* chaining alternative of §3.2, implemented as an
/// ablation baseline: a single chain across all objects, serialized by a
/// mutex — the "bottleneck" the paper argues against. Benchmarked in
/// bench_local_vs_global.
class GlobalChainState {
 public:
  struct Tail {
    SeqId seq_id = 0;
    Bytes checksum;
    bool exists = false;
  };

  /// Returns the current global tail. Callers hold the chain lock across
  /// Get + Set via WithLock to enforce the required total order; the
  /// callback receives `*this` with the lock held, which the analysis
  /// cannot see across the type-erased call — hence AssertHeld().
  Tail Get() const {
    mutex_.AssertHeld();
    return tail_;
  }

  void Set(SeqId seq, Bytes checksum) {
    mutex_.AssertHeld();
    tail_ = Tail{seq, std::move(checksum), true};
  }

  /// Runs `fn` with the global chain lock held, modeling the locking a
  /// multi-participant deployment would need.
  template <typename Fn>
  auto WithLock(Fn&& fn) {
    MutexLock guard(&mutex_);
    return fn(*this);
  }

 private:
  mutable Mutex mutex_;
  Tail tail_ PROVDB_GUARDED_BY(mutex_);
};

}  // namespace provdb::provenance

#endif  // PROVDB_PROVENANCE_CHAIN_H_
