#include "storage/wal.h"

#include <algorithm>
#include <utility>

#include "common/frame.h"
#include "observability/trace.h"

namespace provdb::storage {

WalSegmentNameKind ParseWalSegmentName(const std::string& name,
                                       uint64_t* index) {
  const std::string prefix = "wal-";
  const std::string suffix = ".log";
  if (name.size() <= prefix.size() + suffix.size()) {
    return WalSegmentNameKind::kNotSegment;
  }
  if (name.compare(0, prefix.size(), prefix) != 0) {
    return WalSegmentNameKind::kNotSegment;
  }
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return WalSegmentNameKind::kNotSegment;
  }
  uint64_t value = 0;
  for (size_t i = prefix.size(); i < name.size() - suffix.size(); ++i) {
    char c = name[i];
    if (c < '0' || c > '9') return WalSegmentNameKind::kNotSegment;
    uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) {
      // A digit run that overflows uint64_t cannot name a segment the
      // writer ever produced; treating it modulo 2^64 would let a forged
      // file alias (and shadow) a real low-numbered segment.
      return WalSegmentNameKind::kInvalid;
    }
    value = value * 10 + digit;
  }
  if (value == 0) {
    // Segments are numbered from 1: "wal-000000.log" is segment-shaped
    // but impossible, so it is flagged instead of silently skipped.
    return WalSegmentNameKind::kInvalid;
  }
  *index = value;
  return WalSegmentNameKind::kSegment;
}

// ---------------------------------------------------------------------------
// WalWriter
// ---------------------------------------------------------------------------

std::string WalWriter::SegmentFileName(const std::string& dir,
                                       uint64_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "wal-%06llu.log",
                static_cast<unsigned long long>(index));
  return dir + "/" + buf;
}

WalWriter::~WalWriter() = default;

WalWriter::WalWriter(Env* env, std::string dir, WalOptions options)
    : env_(env),
      dir_(std::move(dir)),
      options_(options),
      appends_(observability::GlobalMetrics().counter("wal.appends")),
      append_bytes_(
          observability::GlobalMetrics().counter("wal.append_bytes")),
      syncs_(observability::GlobalMetrics().counter("wal.syncs")),
      rollovers_(observability::GlobalMetrics().counter("wal.rollovers")),
      sync_latency_(
          observability::GlobalMetrics().histogram("wal.sync.latency_us")) {}

Result<WalWriter> WalWriter::Open(Env* env, const std::string& dir,
                                  WalOptions options) {
  if (options.segment_size_limit <= kFileHeaderSize) {
    return Status::InvalidArgument(
        "wal segment_size_limit must exceed the segment header size");
  }
  PROVDB_RETURN_IF_ERROR(env->CreateDir(dir));
  PROVDB_ASSIGN_OR_RETURN(std::vector<std::string> names, env->ListDir(dir));
  // The checkpoint horizon is a floor: even when every segment at or
  // below it has been garbage-collected, new segments keep numbering
  // past it so a GC'd index is never reused (reused indices would let a
  // pre-GC segment masquerade as post-checkpoint history).
  uint64_t max_index = options.checkpoint_horizon;
  for (const std::string& name : names) {
    uint64_t index = 0;
    switch (ParseWalSegmentName(name, &index)) {
      case WalSegmentNameKind::kSegment:
        max_index = std::max(max_index, index);
        break;
      case WalSegmentNameKind::kInvalid:
        return Status::Corruption("invalid WAL segment name '" + name +
                                  "' in " + dir);
      case WalSegmentNameKind::kNotSegment:
        break;
    }
  }
  // A crash during a previous OpenSegment can leave the highest segment
  // shorter than its header (the header is only Flushed, not Synced,
  // before the first Append). Such a segment holds no records; reuse its
  // index rather than numbering past it — otherwise it would sit
  // headerless *before* the new segment forever, and recovery must treat
  // a headerless non-final segment as corruption.
  while (max_index > options.checkpoint_horizon) {
    const std::string last = SegmentFileName(dir, max_index);
    if (!env->FileExists(last)) {
      // The predecessor of a removed headerless segment is itself
      // missing: a hole inside the live suffix, exactly what
      // WalReader::Open reports — not an I/O error to fumble over.
      return Status::Corruption("WAL segment gap: wal segment " +
                                std::to_string(max_index) + " is missing in " +
                                dir);
    }
    PROVDB_ASSIGN_OR_RETURN(uint64_t size, env->FileSize(last));
    if (size >= kFileHeaderSize) break;
    PROVDB_RETURN_IF_ERROR(env->RemoveFile(last));
    PROVDB_RETURN_IF_ERROR(env->SyncDir(dir));
    --max_index;
  }
  WalWriter writer(env, dir, options);
  PROVDB_RETURN_IF_ERROR(writer.OpenSegment(max_index + 1));
  return writer;
}

Status WalWriter::OpenSegment(uint64_t index) {
  PROVDB_ASSIGN_OR_RETURN(file_,
                          env_->NewWritableFile(SegmentFileName(dir_, index)));
  PROVDB_RETURN_IF_ERROR(file_->Append(EncodeFileHeader(kWalMagic, index)));
  PROVDB_RETURN_IF_ERROR(file_->Flush());
  // Make the segment's directory entry itself crash-durable; otherwise a
  // power cut could forget the file while keeping later ones.
  PROVDB_RETURN_IF_ERROR(env_->SyncDir(dir_));
  segment_index_ = index;
  segment_bytes_ = kFileHeaderSize;
  segment_records_ = 0;
  return Status::OK();
}

Status WalWriter::RollToNextSegment() {
  // The old segment must be durable before the new one can receive
  // data: recovery hard-fails on a torn frame that is no longer at the
  // tail of the log. Any failure in the sequence leaves the writer with
  // no segment that can legally accept frames (the old one is closed or
  // in an unknown state, the new one never opened), so it poisons the
  // writer: a later Append into the stale handle would write records
  // recovery can never see.
  Status roll = Sync();
  if (roll.ok()) roll = file_->Close();
  if (roll.ok()) roll = OpenSegment(segment_index_ + 1);
  if (!roll.ok()) {
    poisoned_ = Status::FailedPrecondition(
        "WAL writer poisoned by a failed segment rollover in " + dir_ +
        ": " + roll.ToString());
    return roll;
  }
  rollovers_->Increment();
  return Status::OK();
}

Status WalWriter::Append(ByteView payload) {
  if (!poisoned_.ok()) {
    return poisoned_;
  }
  if (closed_) {
    return Status::FailedPrecondition("append to closed WAL " + dir_);
  }
  if (payload.size() > kWalMaxPayload) {
    return Status::InvalidArgument(
        "WAL payload of " + std::to_string(payload.size()) +
        " bytes exceeds the 32-bit frame length limit");
  }
  const Bytes frame = EncodeFrame(payload);

  if (segment_records_ > 0 &&
      segment_bytes_ + frame.size() > options_.segment_size_limit) {
    PROVDB_RETURN_IF_ERROR(RollToNextSegment());
  }

  PROVDB_RETURN_IF_ERROR(file_->Append(frame));
  segment_bytes_ += frame.size();
  ++segment_records_;
  ++appended_records_;
  appends_->Increment();
  append_bytes_->Add(frame.size());
  return Status::OK();
}

Status WalWriter::Sync() {
  if (!poisoned_.ok()) {
    return poisoned_;
  }
  if (closed_) {
    return Status::FailedPrecondition("sync of closed WAL " + dir_);
  }
  observability::ScopedLatencyTimer timer(sync_latency_);
  observability::TraceSpan span("wal.sync");
  PROVDB_RETURN_IF_ERROR(file_->Sync());
  synced_records_ = appended_records_;
  syncs_->Increment();
  return Status::OK();
}

Status WalWriter::Close() {
  if (closed_) {
    return Status::OK();
  }
  if (!poisoned_.ok()) {
    // The active file handle is stale (closed, or never replaced, by the
    // failed rollover); touching it again is not safe. Surface the
    // poison instead.
    file_.reset();
    closed_ = true;
    return poisoned_;
  }
  Status s = Sync();
  Status c = file_->Close();
  file_.reset();
  closed_ = true;
  PROVDB_RETURN_IF_ERROR(s);
  return c;
}

Result<uint64_t> WalWriter::RollSegment() {
  if (!poisoned_.ok()) {
    return poisoned_;
  }
  if (closed_) {
    return Status::FailedPrecondition("roll of closed WAL " + dir_);
  }
  if (segment_records_ == 0) {
    // The current segment is empty: everything appended so far already
    // sits behind the boundary to its predecessor, so that boundary is
    // the seal — no I/O needed (and no empty segment left behind).
    return segment_index_ - 1;
  }
  uint64_t sealed = segment_index_;
  PROVDB_RETURN_IF_ERROR(RollToNextSegment());
  return sealed;
}

Status WalWriter::GarbageCollect(uint64_t horizon) {
  if (horizon >= segment_index_) {
    return Status::InvalidArgument(
        "WAL GC horizon " + std::to_string(horizon) +
        " would cover the active segment " + std::to_string(segment_index_) +
        " of " + dir_);
  }
  observability::Counter* gc_segments =
      observability::GlobalMetrics().counter("wal.gc.segments");
  PROVDB_ASSIGN_OR_RETURN(std::vector<std::string> names, env_->ListDir(dir_));
  bool removed_any = false;
  for (const std::string& name : names) {
    uint64_t index = 0;
    if (ParseWalSegmentName(name, &index) != WalSegmentNameKind::kSegment) {
      continue;
    }
    if (index > horizon) {
      continue;
    }
    PROVDB_RETURN_IF_ERROR(env_->RemoveFile(dir_ + "/" + name));
    gc_segments->Increment();
    removed_any = true;
  }
  if (removed_any) {
    // One directory fsync covers the batch: until it lands, a power cut
    // may resurrect some deleted names, which recovery tolerates — the
    // checkpoint horizon makes it skip them either way.
    PROVDB_RETURN_IF_ERROR(env_->SyncDir(dir_));
  }
  options_.checkpoint_horizon = std::max(options_.checkpoint_horizon, horizon);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// WalReader
// ---------------------------------------------------------------------------

Result<WalReader> WalReader::Open(Env* env, const std::string& dir,
                                  WalReaderOptions options) {
  // Recovery observability (docs/OBSERVABILITY.md). Resolved here rather
  // than held as members because recovery is a one-shot static pass.
  observability::MetricsRegistry& metrics = observability::GlobalMetrics();
  observability::Counter* recovered_records =
      metrics.counter("wal.recovery.records");
  observability::Counter* salvages = metrics.counter("wal.recovery.salvages");
  observability::Counter* dropped_total =
      metrics.counter("wal.recovery.dropped_bytes");
  observability::TraceSpan recover_span("wal.recover");

  PROVDB_ASSIGN_OR_RETURN(std::vector<std::string> names, env->ListDir(dir));
  std::vector<std::pair<uint64_t, std::string>> segments;
  for (const std::string& name : names) {
    uint64_t index = 0;
    switch (ParseWalSegmentName(name, &index)) {
      case WalSegmentNameKind::kSegment:
        // Segments at or below the checkpoint horizon are history the
        // sealed snapshot already covers; they are skipped whether or
        // not GC got to them before the crash.
        if (index > options.checkpoint_horizon) {
          segments.emplace_back(index, dir + "/" + name);
        }
        break;
      case WalSegmentNameKind::kInvalid:
        return Status::Corruption("invalid WAL segment name '" + name +
                                  "' in " + dir);
      case WalSegmentNameKind::kNotSegment:
        break;
    }
  }
  std::sort(segments.begin(), segments.end());
  // The replayable suffix must start exactly one past the horizon (the
  // very first segment a fresh log writes is 1). A later start means a
  // segment vanished — silent truncation of acknowledged history, the
  // same corruption as an interior hole.
  if (!segments.empty() &&
      segments[0].first != options.checkpoint_horizon + 1) {
    return Status::Corruption(
        "WAL segment gap: wal segment " +
        std::to_string(options.checkpoint_horizon + 1) + " is missing in " +
        dir);
  }
  for (size_t i = 1; i < segments.size(); ++i) {
    if (segments[i].first != segments[i - 1].first + 1) {
      return Status::Corruption(
          "WAL segment gap: wal segment " +
          std::to_string(segments[i - 1].first + 1) + " is missing in " + dir);
    }
  }

  WalReader reader;
  reader.report_.segments = segments.size();

  for (size_t s = 0; s < segments.size(); ++s) {
    const uint64_t seg_index = segments[s].first;
    const std::string& path = segments[s].second;
    const bool last_segment = s + 1 == segments.size();
    PROVDB_ASSIGN_OR_RETURN(Bytes content, env->ReadFileToBytes(path));

    // Salvage a torn region [tear_at, EOF) of the final segment, or fail.
    auto torn_or_corrupt = [&](size_t tear_at, const std::string& what,
                               bool salvageable) -> Status {
      if (!last_segment || !salvageable) {
        return Status::Corruption(what + " in segment " + path +
                                  " at offset " + std::to_string(tear_at) +
                                  " (not a recoverable tail tear)");
      }
      uint64_t dropped = content.size() - tear_at;
      salvages->Increment();
      dropped_total->Add(dropped);
      reader.report_.dropped_bytes += dropped;
      reader.report_.salvaged_segment = seg_index;
      reader.report_.detail = what + ": salvaged " + path + ", dropped " +
                              std::to_string(dropped) + " byte(s) at offset " +
                              std::to_string(tear_at);
      if (tear_at < kFileHeaderSize) {
        // The salvaged prefix is not even a full header: the segment
        // holds no records. Truncating would leave a headerless file
        // that a later recovery — once newer segments exist and it is
        // no longer last — must reject as corrupt. Remove it instead;
        // the next WalWriter::Open reuses its index, so no gap forms.
        PROVDB_RETURN_IF_ERROR(env->RemoveFile(path));
        PROVDB_RETURN_IF_ERROR(env->SyncDir(ParentDir(path)));
      } else {
        PROVDB_RETURN_IF_ERROR(env->TruncateFile(path, tear_at));
      }
      return Status::OK();
    };

    if (content.size() < kFileHeaderSize) {
      // An empty (or half-written-header) segment can only be the one
      // being created when the crash hit.
      PROVDB_RETURN_IF_ERROR(
          torn_or_corrupt(0, "short segment header", /*salvageable=*/true));
      continue;
    }
    if (ReadFileHeader(content, kWalMagic) != seg_index) {
      // A complete header that fails validation was not torn — the bytes
      // are all there, they are just wrong.
      return Status::Corruption("bad WAL segment header in " + path);
    }

    for (size_t pos = kFileHeaderSize; pos < content.size();) {
      const DecodedFrame frame =
          DecodeFrame(ByteView(content).subview(pos), kWalMaxPayload);
      if (frame.result != FrameResult::kFrame) {
        // Need-more and a bad length are what a torn append leaves. A
        // structurally complete frame with a bad CRC is only a plausible
        // tear when nothing follows it; with more log after it, the
        // bytes were fully written and later damaged.
        PROVDB_RETURN_IF_ERROR(torn_or_corrupt(
            pos, frame.what,
            /*salvageable=*/frame.result != FrameResult::kBadCrc ||
                pos + frame.size == content.size()));
        break;
      }
      reader.payloads_.push_back(frame.payload);
      pos += frame.size;
      ++reader.report_.records;
      recovered_records->Increment();
    }
    reader.segments_.push_back(std::move(content));
  }
  return reader;
}

}  // namespace provdb::storage
