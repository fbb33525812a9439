// WalWriter/WalReader: append, rollover, and the crash-recovery matrix —
// torn tail (salvaged, byte count reported), corrupt CRC mid-log (hard
// Corruption), empty file, frame length overrunning the file, segment
// gaps, and bad headers.

#include "storage/wal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/crc32.h"
#include "common/frame.h"
#include "storage/fault_injection_env.h"

namespace provdb::storage {
namespace {

Bytes B(std::string_view s) { return ByteView(s).ToBytes(); }

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = ::testing::TempDir() + "/provdb_wal_" + info->name();
    env_ = Env::Default();
    // Leftover segments from a previous run would be recovered as live
    // history; every test starts from an empty log directory.
    auto names = env_->ListDir(dir_);
    if (names.ok()) {
      for (const std::string& name : *names) {
        ASSERT_TRUE(env_->RemoveFile(dir_ + "/" + name).ok());
      }
    }
  }

  std::string Segment(uint64_t index) const {
    return WalWriter::SegmentFileName(dir_, index);
  }

  /// Overwrites one byte of `path` at `offset` with its value xor `mask`.
  void FlipByte(const std::string& path, long offset, int mask) {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
    int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
    std::fputc(c ^ mask, f);
    ASSERT_EQ(std::fclose(f), 0);
  }

  /// Appends raw bytes to `path` (simulates tail garbage / torn frames).
  void AppendRaw(const std::string& path, ByteView data) {
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(data.data(), 1, data.size(), f), data.size());
    ASSERT_EQ(std::fclose(f), 0);
  }

  /// A writer with 5 records "rec-0".."rec-4" in segment 1, closed clean.
  void WriteFiveRecords() {
    auto wal = WalWriter::Open(env_, dir_);
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(wal->Append(B("rec-" + std::to_string(i))).ok());
    }
    ASSERT_TRUE(wal->Close().ok());
  }

  Env* env_ = nullptr;
  std::string dir_;
};

// Each "rec-N" frame is varint(5)=1 + 5 payload + 4 crc = 10 bytes, so
// frame k spans [20 + 10k, 30 + 10k) of segment 1.
constexpr long kFrame0 = static_cast<long>(kFileHeaderSize);

TEST_F(WalTest, AppendAndRecoverRoundTrip) {
  WriteFiveRecords();
  auto reader = WalReader::Open(env_, dir_);
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(reader->report().clean());
  EXPECT_EQ(reader->report().segments, 1u);
  EXPECT_EQ(reader->report().records, 5u);
  ASSERT_EQ(reader->payloads().size(), 5u);
  EXPECT_EQ(reader->payloads()[3].ToString(), "rec-3");
}

TEST_F(WalTest, ReopenStartsFreshSegmentAndRecoveryMergesAll) {
  WriteFiveRecords();
  {
    auto wal = WalWriter::Open(env_, dir_);
    ASSERT_TRUE(wal.ok());
    EXPECT_EQ(wal->current_segment_index(), 2u);
    ASSERT_TRUE(wal->Append(B("later-0")).ok());
    ASSERT_TRUE(wal->Append(B("later-1")).ok());
    ASSERT_TRUE(wal->Close().ok());
  }
  auto reader = WalReader::Open(env_, dir_);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->report().segments, 2u);
  ASSERT_EQ(reader->payloads().size(), 7u);
  EXPECT_EQ(reader->payloads()[5].ToString(), "later-0");
}

TEST_F(WalTest, RolloverSplitsSegmentsAtSizeLimit) {
  WalOptions options;
  options.segment_size_limit = 64;  // header 20 + a few 10-byte frames
  auto wal = WalWriter::Open(env_, dir_, options);
  ASSERT_TRUE(wal.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(wal->Append(B("rec-" + std::to_string(i))).ok());
  }
  EXPECT_GT(wal->current_segment_index(), 1u);
  ASSERT_TRUE(wal->Close().ok());

  auto reader = WalReader::Open(env_, dir_);
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(reader->report().clean());
  EXPECT_GT(reader->report().segments, 1u);
  ASSERT_EQ(reader->payloads().size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(reader->payloads()[i].ToString(), "rec-" + std::to_string(i));
  }
}

TEST_F(WalTest, PayloadLargerThanSegmentLimitStillFits) {
  WalOptions options;
  options.segment_size_limit = 64;
  auto wal = WalWriter::Open(env_, dir_, options);
  ASSERT_TRUE(wal.ok());
  Bytes big(500, 0x7E);
  ASSERT_TRUE(wal->Append(B("small")).ok());
  ASSERT_TRUE(wal->Append(big).ok());
  ASSERT_TRUE(wal->Append(B("after")).ok());
  ASSERT_TRUE(wal->Close().ok());

  auto reader = WalReader::Open(env_, dir_);
  ASSERT_TRUE(reader.ok());
  ASSERT_EQ(reader->payloads().size(), 3u);
  EXPECT_EQ(reader->payloads()[1].size(), 500u);
}

TEST_F(WalTest, OversizedPayloadRejected) {
  auto wal = WalWriter::Open(env_, dir_);
  ASSERT_TRUE(wal.ok());
  uint8_t byte = 0;
  auto status = wal->Append(ByteView(&byte, static_cast<size_t>(0xFFFFFFFFu) + 1));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(wal->appended_records(), 0u);
  ASSERT_TRUE(wal->Close().ok());
}

TEST_F(WalTest, EmptyDirectoryRecoversToEmptyLog) {
  ASSERT_TRUE(env_->CreateDir(dir_).ok());
  auto reader = WalReader::Open(env_, dir_);
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(reader->report().clean());
  EXPECT_EQ(reader->report().segments, 0u);
  EXPECT_EQ(reader->payloads().size(), 0u);
}

TEST_F(WalTest, MissingDirectoryIsAnError) {
  EXPECT_FALSE(WalReader::Open(env_, dir_).ok());
}

// Recovery matrix: empty file. A zero-byte final segment is what a crash
// between file creation and the header write leaves behind.
TEST_F(WalTest, EmptyFinalSegmentFileIsSalvagedClean) {
  WriteFiveRecords();
  auto file = env_->NewWritableFile(Segment(2));
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Close().ok());

  auto reader = WalReader::Open(env_, dir_);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->payloads().size(), 5u);
  EXPECT_EQ(reader->report().dropped_bytes, 0u);
}

// Recovery matrix: torn tail. A half-written final frame is salvaged
// away and the dropped byte count is reported, never hidden.
TEST_F(WalTest, TornTailSalvagedWithByteCountReported) {
  WriteFiveRecords();
  // Half a frame: length says 5, only 2 payload bytes follow, no CRC.
  AppendRaw(Segment(1), B("\x05zz"));

  auto reader = WalReader::Open(env_, dir_);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->payloads().size(), 5u);
  EXPECT_EQ(reader->report().dropped_bytes, 3u);
  EXPECT_EQ(reader->report().salvaged_segment, 1u);
  EXPECT_NE(reader->report().detail.find("dropped 3"), std::string::npos);
}

// Default repair truncates the torn tail, so the next recovery — when
// the tear is no longer at the end of the log — still succeeds.
TEST_F(WalTest, RepairedTornTailStaysRecoverableAfterNewSegments) {
  WriteFiveRecords();
  AppendRaw(Segment(1), B("\x05zz"));
  ASSERT_TRUE(WalReader::Open(env_, dir_).ok());  // salvages + repairs

  {
    auto wal = WalWriter::Open(env_, dir_);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->Append(B("after-crash")).ok());
    ASSERT_TRUE(wal->Close().ok());
  }
  auto reader = WalReader::Open(env_, dir_);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_TRUE(reader->report().clean());
  ASSERT_EQ(reader->payloads().size(), 6u);
  EXPECT_EQ(reader->payloads()[5].ToString(), "after-crash");
}

// A tear left unrepaired before a newer segment must hard-fail: it is
// now *before* the tail, which recovery may not silently drop. The state
// is built directly: a new segment with a record, then the torn bytes
// appended to segment 1.
TEST_F(WalTest, UnrepairedTornTailBeforeNewSegmentIsCorruption) {
  WriteFiveRecords();
  {
    auto wal = WalWriter::Open(env_, dir_);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->Append(B("after-crash")).ok());
    ASSERT_TRUE(wal->Close().ok());
  }
  AppendRaw(Segment(1), B("\x05zz"));
  auto reader = WalReader::Open(env_, dir_);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruption);
}

// Recovery matrix: corrupt CRC mid-log. Frames follow the damaged one,
// so this cannot be a tear — it is tampering or disk rot: hard error.
TEST_F(WalTest, CorruptCrcMidLogIsHardCorruption) {
  WriteFiveRecords();
  FlipByte(Segment(1), kFrame0 + 10 + 2, 0x01);  // payload byte of rec-1

  auto reader = WalReader::Open(env_, dir_);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruption);
}

// A CRC mismatch on the very last frame is indistinguishable from a torn
// final write, so it is salvaged — and reported.
TEST_F(WalTest, CorruptCrcOnFinalFrameIsSalvaged) {
  WriteFiveRecords();
  FlipByte(Segment(1), kFrame0 + 40 + 2, 0x01);  // payload byte of rec-4

  auto reader = WalReader::Open(env_, dir_);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->payloads().size(), 4u);
  EXPECT_EQ(reader->report().dropped_bytes, 10u);
}

// Recovery matrix: frame length overruns the file.
TEST_F(WalTest, FrameLengthOverrunningFileIsSalvagedAtTail) {
  WriteFiveRecords();
  // Length varint claims 100 bytes; only 3 follow.
  AppendRaw(Segment(1), B("\x64" "abc"));

  auto reader = WalReader::Open(env_, dir_);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->payloads().size(), 5u);
  EXPECT_EQ(reader->report().dropped_bytes, 4u);
}

TEST_F(WalTest, FrameOverrunInNonFinalSegmentIsCorruption) {
  WriteFiveRecords();
  AppendRaw(Segment(1), B("\x64" "abc"));
  {
    // A later segment exists, so the overrun is no longer at the tail.
    auto wal = WalWriter::Open(env_, dir_);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->Append(B("next")).ok());
    ASSERT_TRUE(wal->Close().ok());
  }
  auto reader = WalReader::Open(env_, dir_);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruption);
}

TEST_F(WalTest, BadHeaderMagicIsCorruption) {
  WriteFiveRecords();
  FlipByte(Segment(1), 0, 0x01);
  auto reader = WalReader::Open(env_, dir_);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruption);
}

TEST_F(WalTest, HeaderIndexMismatchIsCorruption) {
  WriteFiveRecords();
  // Rename segment 1 to segment 2: name and embedded index now disagree.
  ASSERT_TRUE(env_->RenameFile(Segment(1), Segment(2)).ok());
  auto reader = WalReader::Open(env_, dir_);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruption);
}

TEST_F(WalTest, SegmentGapIsCorruption) {
  for (int i = 0; i < 3; ++i) {
    auto wal = WalWriter::Open(env_, dir_);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->Append(B("seg")).ok());
    ASSERT_TRUE(wal->Close().ok());
  }
  ASSERT_TRUE(env_->RemoveFile(Segment(2)).ok());
  auto reader = WalReader::Open(env_, dir_);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruption);
  EXPECT_NE(reader.status().message().find("gap"), std::string::npos);
}

TEST_F(WalTest, HalfWrittenHeaderOnFinalSegmentIsSalvaged) {
  WriteFiveRecords();
  {
    auto file = env_->NewWritableFile(Segment(2));
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append(B("PVDBW")).ok());  // 5 of 20 header bytes
    ASSERT_TRUE((*file)->Close().ok());
  }
  auto reader = WalReader::Open(env_, dir_);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->payloads().size(), 5u);
  EXPECT_EQ(reader->report().dropped_bytes, 5u);
  EXPECT_EQ(reader->report().salvaged_segment, 2u);
  // Repair removes the headerless remnant (a zero-byte truncation would
  // become unrecoverable once it is no longer the last segment).
  EXPECT_FALSE(env_->FileExists(Segment(2)));
}

// Double-crash regression: a crash during segment creation leaves a
// sub-header file; after salvage, a writer restarts and appends; every
// later recovery must still succeed — the remnant must not survive as a
// headerless segment stranded before the new tail.
TEST_F(WalTest, HeaderTearThenNewSegmentsStaysRecoverable) {
  WriteFiveRecords();
  {
    auto file = env_->NewWritableFile(Segment(2));
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append(B("PVDBW")).ok());
    ASSERT_TRUE((*file)->Close().ok());
  }
  ASSERT_TRUE(WalReader::Open(env_, dir_).ok());  // salvages + removes

  {
    auto wal = WalWriter::Open(env_, dir_);
    ASSERT_TRUE(wal.ok());
    EXPECT_EQ(wal->current_segment_index(), 2u) << "index is reused";
    ASSERT_TRUE(wal->Append(B("after-crash")).ok());
    ASSERT_TRUE(wal->Close().ok());
  }
  auto reader = WalReader::Open(env_, dir_);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_TRUE(reader->report().clean());
  ASSERT_EQ(reader->payloads().size(), 6u);
  EXPECT_EQ(reader->payloads()[5].ToString(), "after-crash");
}

// Same crash, but the writer restarts *without* recovery running first
// (the writer itself must not number past a headerless trailing segment).
TEST_F(WalTest, WriterRemovesHeaderlessTrailingSegment) {
  WriteFiveRecords();
  {
    auto file = env_->NewWritableFile(Segment(2));
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append(B("PVDBW")).ok());
    ASSERT_TRUE((*file)->Close().ok());
  }
  {
    auto wal = WalWriter::Open(env_, dir_);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    EXPECT_EQ(wal->current_segment_index(), 2u);
    ASSERT_TRUE(wal->Append(B("fresh")).ok());
    ASSERT_TRUE(wal->Close().ok());
  }
  auto reader = WalReader::Open(env_, dir_);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_TRUE(reader->report().clean());
  ASSERT_EQ(reader->payloads().size(), 6u);
}

// An over-long frame-length varint whose 10th byte carries bits above
// bit 0 overflows uint64. Ignoring those bits would decode length 0 and
// accept the 4 bytes that follow as a valid empty frame — a phantom
// record. It must be classified as malformed instead (here: at the
// tail, so salvaged and reported).
TEST_F(WalTest, OverlongVarintFrameLengthIsMalformedNotPhantomRecord) {
  WriteFiveRecords();
  Bytes evil;
  for (int i = 0; i < 9; ++i) AppendByte(&evil, 0x80);
  AppendByte(&evil, 0x02);  // decodes to length 0 if the overflow is kept
  AppendFixed32(&evil, Crc32(ByteView()));  // valid CRC of empty payload
  AppendRaw(Segment(1), evil);

  auto reader = WalReader::Open(env_, dir_);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->payloads().size(), 5u);
  EXPECT_EQ(reader->report().dropped_bytes, 14u);
}

// A length written with more bytes than it needs (0x85 0x00 for 5) is
// a form the writer never produces, so it is malformed like any other
// bad length: salvaged and reported at the tail of the last segment...
TEST_F(WalTest, NonCanonicalFrameLengthAtTailIsSalvaged) {
  WriteFiveRecords();
  const Bytes payload = B("evil!");
  Bytes evil = {0x85, 0x00};
  evil.reserve(16);
  AppendBytes(&evil, payload);
  AppendFixed32(&evil, Crc32(payload));
  AppendRaw(Segment(1), evil);

  auto reader = WalReader::Open(env_, dir_);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->payloads().size(), 5u);
  EXPECT_EQ(reader->report().dropped_bytes, 11u);
}

// ...and hard corruption in a segment that a later one follows, instead
// of replaying as a record.
TEST_F(WalTest, NonCanonicalFrameLengthInNonFinalSegmentIsCorruption) {
  WriteFiveRecords();
  const Bytes payload = B("evil!");
  Bytes evil = {0x85, 0x00};
  evil.reserve(16);
  AppendBytes(&evil, payload);
  AppendFixed32(&evil, Crc32(payload));
  AppendRaw(Segment(1), evil);
  {
    auto wal = WalWriter::Open(env_, dir_);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->Append(B("next")).ok());
    ASSERT_TRUE(wal->Close().ok());
  }
  auto reader = WalReader::Open(env_, dir_);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruption);
}

// The writer-side crash-survival contract: everything covered by a
// successful Sync survives DropUnsyncedFileData; nothing half-written is
// ever resurrected.
TEST_F(WalTest, SyncedRecordsSurvivePowerCut) {
  FaultInjectionEnv fault_env(Env::Default());
  {
    auto wal = WalWriter::Open(&fault_env, dir_);
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(wal->Append(B("durable-" + std::to_string(i))).ok());
    }
    ASSERT_TRUE(wal->Sync().ok());
    EXPECT_EQ(wal->synced_records(), 5u);
    ASSERT_TRUE(wal->Append(B("volatile-0")).ok());
    ASSERT_TRUE(wal->Append(B("volatile-1")).ok());
    EXPECT_EQ(wal->synced_records(), 5u);
    // Abandon the writer: simulated process death, then power cut.
  }
  ASSERT_TRUE(fault_env.DropUnsyncedFileData().ok());

  auto reader = WalReader::Open(&fault_env, dir_);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_TRUE(reader->report().clean());
  ASSERT_EQ(reader->payloads().size(), 5u);
  EXPECT_EQ(reader->payloads()[4].ToString(), "durable-4");
}

TEST_F(WalTest, TornAppendIsSalvagedNeverResurrected) {
  FaultInjectionEnv fault_env(Env::Default());
  {
    auto wal = WalWriter::Open(&fault_env, dir_);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->Append(B("complete-record")).ok());
    ASSERT_TRUE(wal->Sync().ok());
    // The next frame tears mid-write (half its bytes land), as at a
    // sector boundary during a power cut.
    fault_env.ScheduleAppendFailure(1, /*torn=*/true);
    EXPECT_FALSE(wal->Append(B("half-written-record")).ok());
  }
  // No power cut here (the flushed half-frame survives): recovery must
  // still drop it and report the tear.
  auto reader = WalReader::Open(&fault_env, dir_);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ASSERT_EQ(reader->payloads().size(), 1u);
  EXPECT_EQ(reader->payloads()[0].ToString(), "complete-record");
  EXPECT_GT(reader->report().dropped_bytes, 0u);
}

TEST_F(WalTest, AppendAfterCloseFails) {
  auto wal = WalWriter::Open(env_, dir_);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(wal->Close().ok());
  EXPECT_EQ(wal->Append(B("late")).code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(wal->Close().ok()) << "Close is idempotent";
}

TEST_F(WalTest, TinySegmentLimitRejected) {
  WalOptions options;
  options.segment_size_limit = 10;  // smaller than the header
  EXPECT_FALSE(WalWriter::Open(env_, dir_, options).ok());
}

// ---------------------------------------------------------------------------
// Segment-name parsing: strict classification, no silent shadowing.
// ---------------------------------------------------------------------------

TEST(ParseWalSegmentNameTest, AcceptsWellFormedNames) {
  uint64_t index = 0;
  EXPECT_EQ(ParseWalSegmentName("wal-000001.log", &index),
            WalSegmentNameKind::kSegment);
  EXPECT_EQ(index, 1u);
  EXPECT_EQ(ParseWalSegmentName("wal-123456.log", &index),
            WalSegmentNameKind::kSegment);
  EXPECT_EQ(index, 123456u);
  // The largest index that round-trips through SegmentFileName.
  EXPECT_EQ(ParseWalSegmentName("wal-18446744073709551615.log", &index),
            WalSegmentNameKind::kSegment);
  EXPECT_EQ(index, 0xFFFFFFFFFFFFFFFFull);
}

TEST(ParseWalSegmentNameTest, IgnoresForeignFiles) {
  uint64_t index = 0;
  EXPECT_EQ(ParseWalSegmentName("checkpoint-000001.pvck", &index),
            WalSegmentNameKind::kNotSegment);
  EXPECT_EQ(ParseWalSegmentName("wal-.log", &index),
            WalSegmentNameKind::kNotSegment);
  EXPECT_EQ(ParseWalSegmentName("wal-12x4.log", &index),
            WalSegmentNameKind::kNotSegment);
  EXPECT_EQ(ParseWalSegmentName("wal-000001.log.tmp", &index),
            WalSegmentNameKind::kNotSegment);
  EXPECT_EQ(ParseWalSegmentName("wal-000001", &index),
            WalSegmentNameKind::kNotSegment);
}

TEST(ParseWalSegmentNameTest, RejectsIndexZero) {
  // Segments are numbered from 1; a wal-000000.log cannot be produced by
  // any writer and must not be silently skipped.
  uint64_t index = 99;
  EXPECT_EQ(ParseWalSegmentName("wal-000000.log", &index),
            WalSegmentNameKind::kInvalid);
  EXPECT_EQ(ParseWalSegmentName("wal-0.log", &index),
            WalSegmentNameKind::kInvalid);
}

TEST(ParseWalSegmentNameTest, RejectsUint64Overflow) {
  uint64_t index = 0;
  // 2^64 exactly: one past the largest representable index.
  EXPECT_EQ(ParseWalSegmentName("wal-18446744073709551616.log", &index),
            WalSegmentNameKind::kInvalid);
  EXPECT_EQ(ParseWalSegmentName("wal-99999999999999999999999.log", &index),
            WalSegmentNameKind::kInvalid);
}

TEST_F(WalTest, InvalidSegmentNameInDirectoryIsCorruption) {
  WriteFiveRecords();
  AppendRaw(dir_ + "/wal-000000.log", B("imposter"));
  auto wal = WalWriter::Open(env_, dir_);
  EXPECT_EQ(wal.status().code(), StatusCode::kCorruption);
  auto reader = WalReader::Open(env_, dir_);
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruption);
}

// ---------------------------------------------------------------------------
// Rollover failure poisons the writer (regression: it used to leave the
// writer pointing at the closed old segment and keep appending into it).
// ---------------------------------------------------------------------------

TEST_F(WalTest, FailedRolloverPoisonsWriter) {
  FaultInjectionEnv fault_env(Env::Default());
  WalOptions options;
  options.segment_size_limit = 64;  // header 20 + four 10-byte frames
  auto wal = WalWriter::Open(&fault_env, dir_, options);
  ASSERT_TRUE(wal.ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(wal->Append(B("rec-" + std::to_string(i))).ok());
  }
  ASSERT_TRUE(wal->Sync().ok());

  // The fifth frame does not fit, so Append must roll — and the new
  // segment's creation fails.
  fault_env.ScheduleNewFileFailure(1);
  EXPECT_EQ(wal->Append(B("rec-4")).code(), StatusCode::kIoError);

  // Poisoned: no later operation may touch the closed (or stale) old
  // segment. Every call reports the rollover failure, not success.
  EXPECT_FALSE(wal->poisoned().ok());
  EXPECT_EQ(wal->Append(B("rec-5")).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(wal->Sync().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(wal->RollSegment().status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(wal->Close().code(), StatusCode::kFailedPrecondition);

  // The prefix sealed before the failed rollover recovers intact.
  auto reader = WalReader::Open(&fault_env, dir_);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->payloads().size(), 4u);
}

// ---------------------------------------------------------------------------
// Headerless-trailing cleanup must not walk across a hole (regression:
// Open kept decrementing past a missing segment, reusing an interior
// index and silently shadowing the gap the reader would have caught).
// ---------------------------------------------------------------------------

TEST_F(WalTest, HeaderlessTrailingSegmentBehindGapIsCorruption) {
  WriteFiveRecords();  // segment 1
  // Plant a headerless remnant at index 3 with no segment 2 at all: the
  // cleanup walk removes 3, then must report the missing 2, not reuse it.
  AppendRaw(Segment(3), B("stub"));
  auto wal = WalWriter::Open(env_, dir_);
  ASSERT_EQ(wal.status().code(), StatusCode::kCorruption);
  EXPECT_NE(wal.status().ToString().find("WAL segment gap"),
            std::string::npos)
      << wal.status().ToString();
}

// ---------------------------------------------------------------------------
// RollSegment / GarbageCollect: the checkpoint horizon machinery.
// ---------------------------------------------------------------------------

TEST_F(WalTest, RollSegmentSealsCurrentSegment) {
  auto wal = WalWriter::Open(env_, dir_);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(wal->Append(B("rec-0")).ok());
  auto sealed = wal->RollSegment();
  ASSERT_TRUE(sealed.ok());
  EXPECT_EQ(*sealed, 1u);
  EXPECT_EQ(wal->current_segment_index(), 2u);

  // An empty current segment already sits behind a boundary: the
  // predecessor index comes back with no disk I/O and no new segment.
  auto again = wal->RollSegment();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, 1u);
  EXPECT_EQ(wal->current_segment_index(), 2u);

  ASSERT_TRUE(wal->Append(B("rec-1")).ok());
  auto third = wal->RollSegment();
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(*third, 2u);
  ASSERT_TRUE(wal->Close().ok());

  auto reader = WalReader::Open(env_, dir_);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->payloads().size(), 2u);
}

TEST_F(WalTest, RollSegmentOnEmptyLogReturnsZero) {
  auto wal = WalWriter::Open(env_, dir_);
  ASSERT_TRUE(wal.ok());
  auto sealed = wal->RollSegment();
  ASSERT_TRUE(sealed.ok());
  EXPECT_EQ(*sealed, 0u) << "nothing appended, nothing to seal";
}

TEST_F(WalTest, GarbageCollectRemovesOnlyCoveredSegments) {
  auto wal = WalWriter::Open(env_, dir_);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(wal->Append(B("old-0")).ok());
  ASSERT_TRUE(wal->RollSegment().ok());
  ASSERT_TRUE(wal->Append(B("old-1")).ok());
  ASSERT_TRUE(wal->RollSegment().ok());
  ASSERT_TRUE(wal->Append(B("new-0")).ok());  // segment 3, active

  // The active segment is never eligible.
  EXPECT_EQ(wal->GarbageCollect(3).code(), StatusCode::kInvalidArgument);

  ASSERT_TRUE(wal->GarbageCollect(2).ok());
  EXPECT_FALSE(env_->FileExists(Segment(1)));
  EXPECT_FALSE(env_->FileExists(Segment(2)));
  EXPECT_TRUE(env_->FileExists(Segment(3)));
  EXPECT_EQ(wal->checkpoint_horizon(), 2u);
  // Idempotent: a crash mid-GC just resumes on the next call.
  EXPECT_TRUE(wal->GarbageCollect(2).ok());
  ASSERT_TRUE(wal->Close().ok());

  // A reader told about the horizon replays exactly the suffix.
  WalReaderOptions horizon_options;
  horizon_options.checkpoint_horizon = 2;
  auto reader = WalReader::Open(env_, dir_, horizon_options);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ASSERT_EQ(reader->payloads().size(), 1u);
  EXPECT_EQ(reader->payloads()[0].ToString(), "new-0");

  // A reader *not* told about the horizon must refuse the truncated log:
  // segments vanishing without a sealed checkpoint is a truncation
  // attack, not housekeeping.
  auto blind = WalReader::Open(env_, dir_);
  ASSERT_EQ(blind.status().code(), StatusCode::kCorruption);
  EXPECT_NE(blind.status().ToString().find("WAL segment gap"),
            std::string::npos);
}

TEST_F(WalTest, ReaderRejectsMissingFirstSuffixSegment) {
  auto wal = WalWriter::Open(env_, dir_);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(wal->Append(B("old-0")).ok());
  ASSERT_TRUE(wal->RollSegment().ok());
  ASSERT_TRUE(wal->Append(B("suffix-0")).ok());
  ASSERT_TRUE(wal->RollSegment().ok());
  ASSERT_TRUE(wal->Append(B("suffix-1")).ok());
  ASSERT_TRUE(wal->GarbageCollect(1).ok());
  ASSERT_TRUE(wal->Close().ok());
  // Segments 2 and 3 are the suffix past horizon 1; losing 2 is a hole,
  // even though the remaining indices are contiguous from 3.
  ASSERT_TRUE(env_->RemoveFile(Segment(2)).ok());

  WalReaderOptions horizon_options;
  horizon_options.checkpoint_horizon = 1;
  auto reader = WalReader::Open(env_, dir_, horizon_options);
  ASSERT_EQ(reader.status().code(), StatusCode::kCorruption);
  EXPECT_NE(reader.status().ToString().find("WAL segment gap"),
            std::string::npos);
}

TEST_F(WalTest, ReopenNumbersSegmentsPastGcedHistory) {
  {
    auto wal = WalWriter::Open(env_, dir_);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->Append(B("old-0")).ok());
    ASSERT_TRUE(wal->RollSegment().ok());
    ASSERT_TRUE(wal->Append(B("new-0")).ok());
    ASSERT_TRUE(wal->GarbageCollect(1).ok());
    ASSERT_TRUE(wal->Close().ok());
  }
  // Only segment 2 survives. A reopen that honors the horizon starts at
  // 3; index 1 is spent forever, so a GC'd segment can never come back
  // under its old name.
  WalOptions options;
  options.checkpoint_horizon = 1;
  auto wal = WalWriter::Open(env_, dir_, options);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_EQ(wal->current_segment_index(), 3u);
  ASSERT_TRUE(wal->Close().ok());

  // Even when *every* segment behind the horizon is gone, the writer
  // resumes past it rather than recycling index 1.
  ASSERT_TRUE(env_->RemoveFile(Segment(2)).ok());
  ASSERT_TRUE(env_->RemoveFile(Segment(3)).ok());
  WalOptions all_gced;
  all_gced.checkpoint_horizon = 5;
  auto fresh = WalWriter::Open(env_, dir_, all_gced);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(fresh->current_segment_index(), 6u);
  ASSERT_TRUE(fresh->Close().ok());
}

}  // namespace
}  // namespace provdb::storage
