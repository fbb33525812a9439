#ifndef PROVDB_COMMON_HASHMIX_H_
#define PROVDB_COMMON_HASHMIX_H_

#include <cstddef>
#include <cstdint>

namespace provdb {

/// SplitMix64 finalizer: a fast, high-quality 64-bit bit mixer.
///
/// The sharded ingest pipeline routes every object to a shard with
/// ShardIndex below, so this function is part of the on-disk contract: a
/// shard's WAL directory holds exactly the chains whose ids mix into it.
/// Changing the mixing constants (or the modulus convention) would
/// silently re-home objects away from their recovered chain tails on
/// reopen — treat this as frozen, like a wire format.
inline constexpr uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

/// The shard that owns object `id` in a `num_shards`-way split (nonzero):
/// the routing contract described at Mix64.
inline constexpr size_t ShardIndex(uint64_t id, size_t num_shards) {
  return static_cast<size_t>(Mix64(id) % num_shards);
}

}  // namespace provdb

#endif  // PROVDB_COMMON_HASHMIX_H_
