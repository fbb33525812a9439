#ifndef PROVDB_STORAGE_WAL_H_
#define PROVDB_STORAGE_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "observability/metrics.h"
#include "storage/env.h"

namespace provdb::storage {

/// On-disk layout of the write-ahead provenance log.
///
/// A WAL is a directory of segment files `wal-NNNNNN.log`, numbered from
/// 1 with no gaps. Each segment is:
///
///   +--------+---------------+----------------------+
///   | magic  | segment index | crc32(magic||index)  |   20-byte header
///   | 8 B    | fixed64       | fixed32              |
///   +--------+---------------+----------------------+
///   | varint(len) | payload bytes | crc32(payload)  |   frame, repeated
///   +-------------+---------------+-----------------+
///
/// Header and frames are the common codec's (common/frame.h). A writer
/// never appends to an existing segment: each WalWriter::Open starts
/// segment max+1, so the only file that can legally end mid-frame is the
/// one that was being appended when the process (or the power) died.
inline constexpr char kWalMagic[8] = {'P', 'V', 'D', 'B', 'W', 'A', 'L', '1'};

/// Largest payload a frame can carry (the length field is persisted as a
/// 32-bit quantity everywhere downstream).
inline constexpr uint64_t kWalMaxPayload = 0xFFFFFFFFu;

/// Classification of a directory entry by ParseWalSegmentName.
enum class WalSegmentNameKind {
  kNotSegment,  // some other file; ignore it
  kInvalid,     // segment-shaped but illegal: index 0 or uint64 overflow
  kSegment,     // a well-formed segment name; *index holds its number
};

/// Strict parse of "wal-NNNNNN.log". Segments are numbered from 1, so an
/// index of 0 is not a name the writer can ever produce, and a digit run
/// that overflows uint64_t cannot round-trip through SegmentFileName —
/// both are kInvalid rather than silently ignored: a file that *claims*
/// to be a segment but cannot be one is evidence of tampering or of a
/// foreign file that would otherwise shadow real log state.
WalSegmentNameKind ParseWalSegmentName(const std::string& name,
                                       uint64_t* index);

struct WalOptions {
  /// A segment is closed (synced) and a new one started once it would
  /// exceed this many bytes. A segment always accepts at least one frame,
  /// so payloads larger than the limit still fit.
  uint64_t segment_size_limit = 64ull << 20;

  /// Index of the last WAL segment covered by a sealed checkpoint (0 =
  /// none). Segments at or below the horizon are checkpoint history: the
  /// writer numbers new segments past it even when they have been
  /// garbage-collected, and never reuses an index at or below it, so a
  /// GC'd segment can never be resurrected under its old name.
  uint64_t checkpoint_horizon = 0;
};

/// Incremental appender: WalWriter makes each record durable in
/// O(record) I/O.
///
/// Externally synchronized: a WalWriter holds no mutex of its own.
/// Exactly one owner drives it at a time — in the sharded pipeline that
/// owner is IngestPipeline, whose pipeline-wide lock `mu_` serializes all
/// shard WAL calls (the shards_ vector that reaches the writers is
/// PROVDB_GUARDED_BY(mu_), so the analysis enforces the ownership path
/// even though the writer itself carries no annotations).
class WalWriter {
 public:
  WalWriter(WalWriter&&) = default;
  WalWriter& operator=(WalWriter&&) = default;
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;
  ~WalWriter();

  /// Creates `dir` if needed and starts a fresh segment after the highest
  /// existing one. Trailing segments shorter than a header (the remains
  /// of a crash during a previous Open) are removed and their index
  /// reused; beyond that, old segments are not read or validated — that
  /// is WalReader's job.
  static Result<WalWriter> Open(Env* env, const std::string& dir,
                                WalOptions options = WalOptions());

  /// Appends one record frame. Rejects payloads over kWalMaxPayload with
  /// kInvalidArgument. The record is durable only after the next
  /// successful Sync: the caller places every durability point (the
  /// ingest pipeline syncs each shard once per write-ahead).
  Status Append(ByteView payload);

  /// Makes everything appended so far durable.
  Status Sync();

  /// Syncs and closes the current segment. Further Appends fail.
  Status Close();

  /// Seals everything appended so far behind a segment boundary and
  /// returns the sealed index — the checkpoint horizon a snapshot taken
  /// *now* covers. When the current segment already holds records it is
  /// synced, closed, and a fresh segment is started; when it is empty the
  /// boundary already exists and the predecessor index is returned
  /// without touching the disk.
  Result<uint64_t> RollSegment();

  /// Deletes every segment with index <= `horizon` — history wholly
  /// covered by a sealed checkpoint. The active segment is never
  /// eligible (kInvalidArgument when `horizon` reaches it). Idempotent:
  /// already-missing segments are skipped, so a crash mid-GC just
  /// resumes on the next call.
  Status GarbageCollect(uint64_t horizon);

  /// Full path of segment `index` under `dir`.
  static std::string SegmentFileName(const std::string& dir, uint64_t index);

  uint64_t appended_records() const { return appended_records_; }

  /// Records covered by the last successful Sync — the crash-survival
  /// guarantee the fault-injection sweep checks against.
  uint64_t synced_records() const { return synced_records_; }

  uint64_t current_segment_index() const { return segment_index_; }
  uint64_t current_segment_bytes() const { return segment_bytes_; }
  uint64_t current_segment_records() const { return segment_records_; }
  const std::string& dir() const { return dir_; }
  Env* env() const { return env_; }

  /// The checkpoint horizon this writer was opened with (see WalOptions).
  uint64_t checkpoint_horizon() const { return options_.checkpoint_horizon; }

  /// Non-OK once the writer is poisoned (a failed segment rollover left
  /// no segment that can legally accept frames); every later Append,
  /// Sync, and RollSegment returns this status.
  const Status& poisoned() const { return poisoned_; }

 private:
  WalWriter(Env* env, std::string dir, WalOptions options);

  Status OpenSegment(uint64_t index);

  /// Seals the current segment and opens `segment_index_ + 1`. Any
  /// failure poisons the writer: the old segment is (or may be) closed
  /// and no replacement exists, so a later Append would write into a
  /// closed or stale file.
  Status RollToNextSegment();

  Env* env_;
  std::string dir_;
  WalOptions options_;
  std::unique_ptr<WritableFile> file_;
  uint64_t segment_index_ = 0;
  uint64_t segment_bytes_ = 0;
  uint64_t segment_records_ = 0;
  uint64_t appended_records_ = 0;
  uint64_t synced_records_ = 0;
  bool closed_ = false;
  Status poisoned_ = Status::OK();  // see poisoned()

  // WAL observability (docs/OBSERVABILITY.md). Shared process-wide, so
  // several writers aggregate into the same instruments.
  observability::Counter* appends_;
  observability::Counter* append_bytes_;
  observability::Counter* syncs_;
  observability::Counter* rollovers_;
  observability::Histogram* sync_latency_;
};

/// What recovery found and what it had to discard. `dropped_bytes > 0`
/// means the final segment ended in a torn (half-written) region that was
/// salvaged away; it is reported, never hidden — a verifier that blesses
/// a silently shortened log has blessed a truncation attack (§2.2).
struct WalRecoveryReport {
  uint64_t segments = 0;
  uint64_t records = 0;
  uint64_t dropped_bytes = 0;     // torn-tail bytes discarded
  uint64_t salvaged_segment = 0;  // segment index of the torn tail, 0 = none
  std::string detail;             // human-readable summary of any salvage

  /// Checkpoint-bounded recovery (filled in by the provenance layer):
  /// the WAL horizon of the checkpoint the suffix was replayed on top
  /// of (0 = full-history replay) and the records restored from the
  /// checkpoint itself rather than from WAL frames.
  uint64_t checkpoint_horizon = 0;
  uint64_t checkpoint_records = 0;

  bool clean() const { return dropped_bytes == 0; }
};

struct WalReaderOptions {
  /// Segments at or below this index are checkpoint history: their
  /// records live in the sealed snapshot, so the reader skips them
  /// (they may already be garbage-collected) and replays only the
  /// suffix. The first surviving segment must be exactly horizon + 1 —
  /// anything later means a suffix segment vanished, which is the same
  /// "WAL segment gap" corruption as an interior hole.
  uint64_t checkpoint_horizon = 0;
};

/// Crash recovery: scans all segments, validates headers and CRCs, and
/// replays the valid record prefix.
///
/// Decision rule (LevelDB-style, documented in DESIGN.md §8): a
/// malformed region that extends to the end of the *final* segment is a
/// torn write — salvage the prefix and report the dropped bytes. Any
/// malformed or CRC-failing frame *before* that point cannot be produced
/// by an append-only crash, so it is tampering or disk rot: hard
/// kCorruption, no salvage.
///
/// A salvaged tail is repaired: truncated off the segment (durably), so
/// the next recovery — by which time a newer segment may exist and the
/// tear would no longer be *at* the tail — sees a clean log. A final
/// segment whose salvaged prefix is shorter than its header holds no
/// records and is removed outright rather than left behind as a
/// headerless (hence unrecoverable) zero-byte file.
class WalReader {
 public:
  WalReader(WalReader&&) = default;
  WalReader& operator=(WalReader&&) = default;
  WalReader(const WalReader&) = delete;
  WalReader& operator=(const WalReader&) = delete;

  static Result<WalReader> Open(Env* env, const std::string& dir,
                                WalReaderOptions options = WalReaderOptions());

  /// The recovered payloads, in append order. They view segment bytes
  /// the reader owns, so they stay valid as long as the reader, moves
  /// included.
  const std::vector<ByteView>& payloads() const { return payloads_; }

  const WalRecoveryReport& report() const { return report_; }

 private:
  WalReader() = default;

  std::vector<Bytes> segments_;  // the bytes `payloads_` view
  std::vector<ByteView> payloads_;
  WalRecoveryReport report_;
};

}  // namespace provdb::storage

#endif  // PROVDB_STORAGE_WAL_H_
