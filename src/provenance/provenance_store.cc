#include "provenance/provenance_store.h"

#include <algorithm>

#include "provenance/serialization.h"

namespace provdb::provenance {

ProvenanceStore::~ProvenanceStore() {
  // The current trie (and the chain cells its live leaves reach) is
  // owned here; every *superseded* node was retired and is the domain's
  // to free. The published version shares subtrees with the current
  // root, so only the version object itself is deleted.
  ChainIndex::FreeAll(chain_root_);
  delete published_.load(std::memory_order_relaxed);
  delete spare_;
}

ProvenanceRecord* ProvenanceStore::ArenaAppend(ProvenanceRecord record) {
  if (record_count_ % kChunkRecords == 0) {
    chunks_.push_back(std::make_unique<Chunk>());
  }
  ProvenanceRecord* slot =
      &chunks_.back()->slots[record_count_ % kChunkRecords];
  *slot = std::move(record);
  ++record_count_;
  return slot;
}

void ProvenanceStore::MarkDirty() {
  dirty_ = true;
  if (spare_ == nullptr) {
    spare_ = new StoreVersion;
  }
}

void ProvenanceStore::PublishSnapshot() {
  if (!dirty_) {
    return;
  }
  StoreVersion* version = spare_;
  version->root = chain_root_;
  version->record_count = record_count_;
  version->live_records = live_count_;
  version->tick = ++publish_tick_;
  StoreVersion* old =
      published_.exchange(version, std::memory_order_acq_rel);
  if (old != nullptr) {
    domain_.Retire(old);
  }
  spare_ = nullptr;
  dirty_ = false;
  // Readers pinning from here on synchronize with this advance and
  // therefore see `version` (or newer) — the reclamation rule's anchor.
  domain_.Advance();
}

const ChainNode* ProvenanceStore::HeadOf(storage::ObjectId id) const {
  const ChainIndex::Leaf* leaf = ChainIndex::Find(chain_root_, id);
  return leaf != nullptr ? leaf->head : nullptr;
}

Result<uint64_t> ProvenanceStore::AddRecord(ProvenanceRecord record) {
  const storage::ObjectId id = record.output.object_id;
  const ChainNode* head = HeadOf(id);
  if (head != nullptr) {
    const ProvenanceRecord& last = *head->record;
    if (record.seq_id <= last.seq_id) {
      return Status::FailedPrecondition(
          "records for object " + std::to_string(id) +
          " must have increasing seqIDs (have " +
          std::to_string(last.seq_id) + ", got " +
          std::to_string(record.seq_id) + ")");
    }
  }
  const uint64_t index = record_count_;
  paper_schema_bytes_ += 12 + record.checksum.size();
  checksum_bytes_ += record.checksum.size();
  if (record.op == OperationType::kAggregate) {
    for (const ObjectState& input : record.inputs) {
      ++aggregation_input_refs_[input.object_id];
    }
  }
  ProvenanceRecord* slot = ArenaAppend(std::move(record));
  ChainNode* cell = new ChainNode;
  cell->record = slot;
  cell->index = index;
  cell->prev = head;
  cell->length = head != nullptr ? head->length + 1 : 1;
  chain_root_ =
      ChainIndex::Insert(chain_root_, id, cell, publish_tick_, domain_);
  pruned_.push_back(false);
  ++live_count_;
  if (head == nullptr) ++live_chains_;
  MarkDirty();
  return index;
}

Status ProvenanceStore::CheckPrunable(storage::ObjectId id) const {
  auto refs = aggregation_input_refs_.find(id);
  if (refs != aggregation_input_refs_.end() && refs->second > 0) {
    return Status::FailedPrecondition(
        "object " + std::to_string(id) + " is an aggregation input of " +
        std::to_string(refs->second) +
        " record(s); its provenance is still referenced downstream");
  }
  return Status::OK();
}

Result<size_t> ProvenanceStore::PruneObject(storage::ObjectId id) {
  PROVDB_RETURN_IF_ERROR(CheckPrunable(id));
  const ChainNode* head = HeadOf(id);
  if (head == nullptr) {
    return static_cast<size_t>(0);
  }
  size_t dropped = 0;
  for (const ChainNode* cell = head; cell != nullptr; cell = cell->prev) {
    if (pruned_[cell->index]) {
      continue;
    }
    const ProvenanceRecord& rec = *cell->record;
    paper_schema_bytes_ -= 12 + rec.checksum.size();
    checksum_bytes_ -= rec.checksum.size();
    if (rec.op == OperationType::kAggregate) {
      for (const ObjectState& input : rec.inputs) {
        auto in_refs = aggregation_input_refs_.find(input.object_id);
        if (in_refs != aggregation_input_refs_.end() && in_refs->second > 0) {
          --in_refs->second;
        }
      }
    }
    pruned_[cell->index] = true;
    --live_count_;
    ++dropped;
  }
  // Tombstone the leaf (readers on older roots still see the chain) and
  // retire the now-unreachable cons cells behind the old head.
  chain_root_ =
      ChainIndex::Insert(chain_root_, id, nullptr, publish_tick_, domain_);
  --live_chains_;
  const ChainNode* cell = head;
  while (cell != nullptr) {
    const ChainNode* prev = cell->prev;
    domain_.Retire(const_cast<ChainNode*>(cell));
    cell = prev;
  }
  MarkDirty();
  return dropped;
}

std::vector<uint64_t> ProvenanceStore::ChainOf(storage::ObjectId id) const {
  const ChainNode* head = HeadOf(id);
  if (head == nullptr) {
    return {};
  }
  std::vector<uint64_t> out(static_cast<size_t>(head->length));
  size_t pos = out.size();
  for (const ChainNode* cell = head; cell != nullptr; cell = cell->prev) {
    out[--pos] = cell->index;
  }
  return out;
}

Result<const ProvenanceRecord*> ProvenanceStore::LatestFor(
    storage::ObjectId id) const {
  const ChainNode* head = HeadOf(id);
  if (head == nullptr) {
    return Status::NotFound("no provenance records for object " +
                            std::to_string(id));
  }
  return head->record;
}

Result<std::vector<ProvenanceRecord>> ProvenanceStore::ExtractProvenance(
    storage::ObjectId subject) const {
  return ExtractProvenanceDeep(subject, {});
}

Result<std::vector<ProvenanceRecord>> ProvenanceStore::ExtractProvenanceDeep(
    storage::ObjectId subject,
    const std::vector<storage::ObjectId>& descendants) const {
  if (HeadOf(subject) == nullptr) {
    return Status::NotFound("no provenance records for object " +
                            std::to_string(subject));
  }
  std::vector<storage::ObjectId> seeds = descendants;
  seeds.push_back(subject);
  std::vector<const ChainNode*> cells = CollectClosure(
      [this](storage::ObjectId id) { return HeadOf(id); }, seeds);
  // Index order: the writer's linear extension of the seqID order, and
  // the record order the golden bundle digests pin.
  std::sort(cells.begin(), cells.end(),
            [](const ChainNode* a, const ChainNode* b) {
              return a->index < b->index;
            });
  std::vector<ProvenanceRecord> out;
  out.reserve(cells.size());
  for (const ChainNode* cell : cells) {
    out.push_back(*cell->record);
  }
  return out;
}

uint64_t ProvenanceStore::SerializedBytes() const {
  uint64_t total = 0;
  for (uint64_t i = 0; i < record_count_; ++i) {
    if (!pruned_[i]) {
      total += EncodeRecord(record(i)).size();
    }
  }
  return total;
}

}  // namespace provdb::provenance
