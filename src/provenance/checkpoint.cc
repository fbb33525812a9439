#include "provenance/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "common/frame.h"
#include "common/varint.h"
#include "observability/metrics.h"
#include "observability/trace.h"
#include "provenance/serialization.h"
#include "storage/wal.h"

namespace provdb::provenance {
namespace {

constexpr char kTmpSuffix[] = ".tmp";

/// Bytes of frames a seal gathers before appending them to its file.
constexpr size_t kWriteChunk = 64 * 1024;

/// "checkpoint-NNNNNN.pvck" -> horizon, or 0 when `name` is not a
/// (non-temporary) checkpoint file. Unlike WAL segment names a horizon
/// of 0 never appears in a file name, so 0 is unambiguous here.
uint64_t ParseCheckpointName(const std::string& name) {
  const std::string prefix = "checkpoint-";
  const std::string suffix = ".pvck";
  if (name.size() <= prefix.size() + suffix.size()) return 0;
  if (name.compare(0, prefix.size(), prefix) != 0) return 0;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return 0;
  }
  uint64_t index = 0;
  for (size_t i = prefix.size(); i < name.size() - suffix.size(); ++i) {
    char c = name[i];
    if (c < '0' || c > '9') return 0;
    uint64_t digit = static_cast<uint64_t>(c - '0');
    if (index > (UINT64_MAX - digit) / 10) return 0;
    index = index * 10 + digit;
  }
  return index;
}

/// Absorbs one frame payload into the running root digest. The fixed
/// length prefix keeps payload boundaries unambiguous under
/// concatenation (two different frame sequences can never hash alike).
void AbsorbFrame(crypto::Hasher* hasher, ByteView payload) {
  // Little-endian, as AppendFixed64 writes it; on the stack, since a seal
  // and a load each absorb every frame.
  uint8_t len[8];
  for (int i = 0; i < 8; ++i) {
    len[i] = static_cast<uint8_t>(static_cast<uint64_t>(payload.size()) >>
                                  (8 * i));
  }
  hasher->Update(ByteView(len, sizeof(len)));
  hasher->Update(payload);
}

Bytes EncodeManifest(const CheckpointManifest& manifest) {
  Bytes out;
  AppendByte(&out, kCheckpointVersion);
  AppendVarint64(&out, manifest.wal_horizon);
  AppendVarint64(&out, manifest.sealer);
  AppendVarint64(&out, static_cast<uint64_t>(manifest.root_hash));
  AppendVarint64(&out, manifest.live_records);
  AppendVarint64(&out, manifest.chain_count);
  return out;
}

Result<CheckpointManifest> DecodeManifest(ByteView payload) {
  VarintReader reader(payload);
  PROVDB_ASSIGN_OR_RETURN(ByteView version, reader.ReadRaw(1));
  if (version[0] != kCheckpointVersion) {
    return Status::Corruption("unsupported checkpoint version " +
                              std::to_string(version[0]));
  }
  CheckpointManifest manifest;
  PROVDB_ASSIGN_OR_RETURN(manifest.wal_horizon, reader.ReadVarint64());
  PROVDB_ASSIGN_OR_RETURN(manifest.sealer, reader.ReadVarint64());
  PROVDB_ASSIGN_OR_RETURN(uint64_t alg, reader.ReadVarint64());
  if (alg > static_cast<uint64_t>(crypto::HashAlgorithm::kMd5)) {
    return Status::Corruption("unknown checkpoint root hash algorithm " +
                              std::to_string(alg));
  }
  manifest.root_hash = static_cast<crypto::HashAlgorithm>(alg);
  PROVDB_ASSIGN_OR_RETURN(manifest.live_records, reader.ReadVarint64());
  PROVDB_ASSIGN_OR_RETURN(manifest.chain_count, reader.ReadVarint64());
  if (!reader.done()) {
    return Status::Corruption("trailing bytes after checkpoint manifest");
  }
  return manifest;
}

/// What a checkpoint seals of one published version, in sealing order:
/// its live records in store index order (its live chains hold exactly
/// the live records, since a prune drops a whole chain, and each cell
/// carries the record's store index), and its live chain heads in
/// ascending object id.
struct SealedImage {
  std::vector<const ProvenanceRecord*> records;
  std::vector<std::pair<storage::ObjectId, const ChainNode*>> heads;
};

SealedImage CollectImage(const StoreReadView& view) {
  SealedImage image;
  std::vector<const ChainNode*> cells;
  cells.reserve(view.live_record_count());
  view.ForEachChain([&](storage::ObjectId id, const ChainNode* head) {
    image.heads.emplace_back(id, head);
    for (const ChainNode* cell = head; cell != nullptr; cell = cell->prev) {
      cells.push_back(cell);
    }
  });
  std::sort(cells.begin(), cells.end(),
            [](const ChainNode* a, const ChainNode* b) {
              return a->index < b->index;
            });
  std::sort(image.heads.begin(), image.heads.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  image.records.reserve(cells.size());
  for (const ChainNode* cell : cells) image.records.push_back(cell->record);
  return image;
}

/// The chain-tails frame: per live chain, ascending by object id, the
/// tail seqID and tail checksum.
Bytes EncodeChainTails(
    const std::vector<std::pair<storage::ObjectId, const ChainNode*>>& heads) {
  Bytes out;
  for (const auto& [object, head] : heads) {
    AppendVarint64(&out, object);
    AppendVarint64(&out, head->record->seq_id);
    AppendLengthPrefixed(&out, head->record->checksum);
  }
  return out;
}

}  // namespace

std::string CheckpointFileName(const std::string& dir, uint64_t horizon) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "checkpoint-%06llu.pvck",
                static_cast<unsigned long long>(horizon));
  return dir + "/" + buf;
}

Status CheckpointWriter::Write(storage::Env* env, const std::string& dir,
                               const StoreReadView& view,
                               uint64_t wal_horizon,
                               const crypto::RsaSigner& signer,
                               uint64_t sealer_id,
                               crypto::HashAlgorithm root_hash) {
  if (wal_horizon == 0) {
    return Status::InvalidArgument(
        "checkpoint horizon must cover at least WAL segment 1");
  }
  // Checkpoint observability (docs/OBSERVABILITY.md). Resolved here
  // because sealing is a one-shot static pass, like WAL recovery.
  observability::MetricsRegistry& metrics = observability::GlobalMetrics();
  observability::ScopedLatencyTimer timer(
      metrics.histogram("checkpoint.write.latency_us"));
  observability::TraceSpan span("checkpoint.write");

  const SealedImage image = CollectImage(view);
  CheckpointManifest manifest;
  manifest.wal_horizon = wal_horizon;
  manifest.sealer = sealer_id;
  manifest.root_hash = root_hash;
  manifest.live_records = image.records.size();
  manifest.chain_count = image.heads.size();

  std::unique_ptr<crypto::Hasher> hasher = crypto::CreateHasher(root_hash);
  hasher->Reset();

  // tmp + fsync + atomic rename + directory fsync (inside RenameFile):
  // a crash at any point leaves either no checkpoint or the complete
  // sealed one — never a torn file that recovery must judge. The frames
  // go out in chunks, so a seal holds one chunk of the image, not all of
  // it.
  const std::string final_path = CheckpointFileName(dir, wal_horizon);
  const std::string tmp_path = final_path + kTmpSuffix;
  PROVDB_ASSIGN_OR_RETURN(std::unique_ptr<storage::WritableFile> file,
                          env->NewWritableFile(tmp_path));
  uint64_t written = 0;
  Bytes chunk = EncodeFileHeader(kCheckpointMagic, wal_horizon);
  auto write_chunk = [&]() -> Status {
    written += chunk.size();
    Status appended = file->Append(chunk);
    chunk.clear();
    return appended;
  };
  auto emit = [&](ByteView payload) -> Status {
    AbsorbFrame(hasher.get(), payload);
    AppendFrame(&chunk, payload);
    return chunk.size() >= kWriteChunk ? write_chunk() : Status::OK();
  };
  PROVDB_RETURN_IF_ERROR(emit(EncodeManifest(manifest)));
  for (const ProvenanceRecord* rec : image.records) {
    PROVDB_RETURN_IF_ERROR(emit(EncodeRecord(*rec)));
  }
  PROVDB_RETURN_IF_ERROR(emit(EncodeChainTails(image.heads)));

  // The seal: sign the store-level root. The signature frame itself is
  // outside the root (it cannot cover itself); its integrity comes from
  // the frame CRC plus the fact that a swapped signature fails to
  // verify.
  crypto::Digest root = hasher->Finish();
  PROVDB_ASSIGN_OR_RETURN(Bytes signature, signer.Sign(root.view()));
  Bytes seal;
  AppendLengthPrefixed(&seal, signature);
  AppendFrame(&chunk, seal);
  PROVDB_RETURN_IF_ERROR(write_chunk());
  PROVDB_RETURN_IF_ERROR(file->Sync());
  PROVDB_RETURN_IF_ERROR(file->Close());
  PROVDB_RETURN_IF_ERROR(env->RenameFile(tmp_path, final_path));

  metrics.counter("checkpoint.writes")->Increment();
  metrics.counter("checkpoint.write.records")->Add(manifest.live_records);
  metrics.counter("checkpoint.write.bytes")->Add(written);
  return Status::OK();
}

Result<CheckpointManifest> CheckpointReader::Load(
    storage::Env* env, const std::string& path,
    const crypto::RsaSignatureVerifier& verifier, ProvenanceStore* store) {
  observability::MetricsRegistry& metrics = observability::GlobalMetrics();
  observability::ScopedLatencyTimer timer(
      metrics.histogram("checkpoint.load.latency_us"));
  observability::TraceSpan span("checkpoint.load");

  PROVDB_ASSIGN_OR_RETURN(Bytes content, env->ReadFileToBytes(path));
  if (content.size() < kFileHeaderSize) {
    return Status::Corruption("checkpoint " + path + " shorter than header");
  }
  const std::optional<uint64_t> header_horizon =
      ReadFileHeader(content, kCheckpointMagic);
  if (!header_horizon) {
    return Status::Corruption("bad checkpoint header in " + path);
  }

  // Strict framing: checkpoints are written atomically, so unlike a WAL
  // tail there is no legal way for one to end mid-frame — every outcome
  // but a clean frame is corruption, never a salvageable tear. Frames
  // share the WAL's 32-bit length bound.
  std::vector<ByteView> payloads;
  for (size_t pos = kFileHeaderSize; pos < content.size();) {
    const DecodedFrame frame =
        DecodeFrame(ByteView(content).subview(pos), storage::kWalMaxPayload);
    if (frame.result != FrameResult::kFrame) {
      return Status::Corruption(std::string(frame.what) + " in checkpoint " +
                                path + " at offset " + std::to_string(pos));
    }
    payloads.push_back(frame.payload);
    pos += frame.size;
  }
  if (payloads.size() < 3) {
    // Minimum: manifest, chain tails, seal (an empty store still seals).
    return Status::Corruption("checkpoint " + path + " is missing frames");
  }

  PROVDB_ASSIGN_OR_RETURN(CheckpointManifest manifest,
                          DecodeManifest(payloads.front()));
  if (manifest.wal_horizon != *header_horizon) {
    return Status::Corruption(
        "checkpoint header horizon disagrees with its manifest in " + path);
  }
  if (payloads.size() != manifest.live_records + 3) {
    return Status::Corruption("checkpoint " + path + " frame count " +
                              std::to_string(payloads.size()) +
                              " does not match its manifest");
  }

  // Verify the seal before trusting a single record: recompute the root
  // over every sealed payload and check the signature. This is the same
  // refusal a tampered record meets — kVerificationFailed, no partial
  // load.
  std::unique_ptr<crypto::Hasher> hasher =
      crypto::CreateHasher(manifest.root_hash);
  hasher->Reset();
  for (size_t i = 0; i + 1 < payloads.size(); ++i) {
    AbsorbFrame(hasher.get(), payloads[i]);
  }
  crypto::Digest root = hasher->Finish();
  VarintReader seal_reader(payloads.back());
  PROVDB_ASSIGN_OR_RETURN(Bytes signature, seal_reader.ReadLengthPrefixed());
  if (!seal_reader.done()) {
    return Status::Corruption("trailing bytes after checkpoint seal in " +
                              path);
  }
  Status sealed = verifier.Verify(root.view(), signature);
  if (!sealed.ok()) {
    return Status::VerificationFailed(
        "checkpoint seal of " + path +
        " does not verify: " + sealed.ToString());
  }

  // Fill the store from the sealed records, then cross-check its chain
  // heads against the sealed tails — a defense-in-depth consistency
  // check (the signature already covers both). The tails must name
  // every loaded chain once, ascending by object id, each at its head.
  for (uint64_t i = 0; i < manifest.live_records; ++i) {
    PROVDB_ASSIGN_OR_RETURN(ProvenanceRecord rec,
                            DecodeRecord(payloads[1 + i]));
    PROVDB_RETURN_IF_ERROR(store->AddRecord(std::move(rec)).status());
  }
  VarintReader tails_reader(payloads[payloads.size() - 2]);
  uint64_t listed = 0;
  storage::ObjectId last = 0;
  while (!tails_reader.done()) {
    PROVDB_ASSIGN_OR_RETURN(uint64_t object, tails_reader.ReadVarint64());
    PROVDB_ASSIGN_OR_RETURN(uint64_t seq, tails_reader.ReadVarint64());
    PROVDB_ASSIGN_OR_RETURN(ByteView checksum,
                            tails_reader.ReadLengthPrefixedView());
    const Result<const ProvenanceRecord*> head = store->LatestFor(object);
    if ((listed > 0 && object <= last) || !head.ok() ||
        (*head)->seq_id != seq ||
        !ConstantTimeEqual(checksum, (*head)->checksum)) {
      return Status::Corruption(
          "checkpoint " + path + " chain tail for object " +
          std::to_string(object) + " disagrees with its sealed records");
    }
    last = object;
    ++listed;
  }
  if (listed != manifest.chain_count ||
      listed != store->live_chain_count()) {
    return Status::Corruption("checkpoint " + path + " chain count " +
                              std::to_string(listed) +
                              " does not match its manifest");
  }

  metrics.counter("checkpoint.loads")->Increment();
  metrics.counter("checkpoint.load.records")->Add(manifest.live_records);
  return manifest;
}

Result<uint64_t> LatestCheckpointHorizon(storage::Env* env,
                                         const std::string& dir) {
  PROVDB_ASSIGN_OR_RETURN(std::vector<std::string> names, env->ListDir(dir));
  uint64_t latest = 0;
  for (const std::string& name : names) {
    latest = std::max(latest, ParseCheckpointName(name));
  }
  if (latest == 0) {
    return Status::NotFound("no checkpoint in " + dir);
  }
  return latest;
}

Status RemoveStaleCheckpoints(storage::Env* env, const std::string& dir,
                              uint64_t keep_horizon) {
  observability::Counter* removed =
      observability::GlobalMetrics().counter("checkpoint.stale_removed");
  PROVDB_ASSIGN_OR_RETURN(std::vector<std::string> names, env->ListDir(dir));
  bool removed_any = false;
  const size_t tmp_len = sizeof(kTmpSuffix) - 1;
  for (const std::string& name : names) {
    const uint64_t horizon = ParseCheckpointName(name);
    const bool stale_checkpoint = horizon > 0 && horizon < keep_horizon;
    // A lingering .tmp is always abandoned: the writer builds every
    // snapshot in a fresh temp file and renames it away on success, and
    // this cleanup only runs between writes.
    const bool abandoned_tmp =
        name.size() > tmp_len &&
        name.compare(name.size() - tmp_len, tmp_len, kTmpSuffix) == 0 &&
        ParseCheckpointName(name.substr(0, name.size() - tmp_len)) > 0;
    if (!stale_checkpoint && !abandoned_tmp) {
      continue;
    }
    PROVDB_RETURN_IF_ERROR(env->RemoveFile(dir + "/" + name));
    removed->Increment();
    removed_any = true;
  }
  if (removed_any) {
    PROVDB_RETURN_IF_ERROR(env->SyncDir(dir));
  }
  return Status::OK();
}

}  // namespace provdb::provenance
