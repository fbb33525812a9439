#ifndef PROVDB_PROVENANCE_SERIALIZATION_H_
#define PROVDB_PROVENANCE_SERIALIZATION_H_

#include "common/bytes.h"
#include "common/result.h"
#include "common/varint.h"
#include "crypto/digest.h"
#include "provenance/record.h"

namespace provdb::provenance {

/// Binary encoding of a provenance record. WAL entries, checkpoint
/// record frames, query-chain responses and recipient bundles all carry
/// it. The format is versioned with a leading tag byte so it can evolve.
Bytes EncodeRecord(const ProvenanceRecord& record);

/// Strict inverse of EncodeRecord: a flag byte other than 0 or 1, or a
/// digest wider than crypto::Digest::kMaxSize, is kCorruption, so no two
/// byte strings decode to the same record.
Result<ProvenanceRecord> DecodeRecord(ByteView data);

/// Reads a digest encoded as a length-prefixed field. Lengths above the
/// digest width are rejected rather than truncated: truncation would make
/// two distinct byte strings decode to the same value.
Result<crypto::Digest> ReadDigest(VarintReader* reader);

/// WAL entry framing. The ingest pipeline's WAL carries more than bare
/// records: prunes must reach the log too, or crash recovery would
/// replay the appends and resurrect pruned history. Every WAL payload is
/// therefore one entry — a leading type byte, then a type-specific body.
/// (Checkpoint record frames carry bare EncodeRecord payloads.)
enum class WalEntryType : uint8_t {
  kRecord = 1,  // body: EncodeRecord bytes
  kPrune = 2,   // body: varint object id
};

/// Encodes a record append: [kRecord] || EncodeRecord(record).
Bytes EncodeWalRecordEntry(const ProvenanceRecord& record);

/// Encodes a prune marker: [kPrune] || varint(id).
Bytes EncodeWalPruneEntry(storage::ObjectId id);

}  // namespace provdb::provenance

#endif  // PROVDB_PROVENANCE_SERIALIZATION_H_
