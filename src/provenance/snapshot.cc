#include "provenance/snapshot.h"

#include <algorithm>
#include <string>

#include "common/hashmix.h"

namespace provdb::provenance {

const ChainNode* StoreReadView::head_for(storage::ObjectId id) const {
  const ChainIndex::Leaf* leaf = ChainIndex::Find(root_, id);
  return leaf != nullptr ? leaf->head : nullptr;
}

std::vector<const ProvenanceRecord*> StoreReadView::ChainRecords(
    const ChainNode* head) {
  if (head == nullptr) {
    return {};
  }
  std::vector<const ProvenanceRecord*> out(
      static_cast<size_t>(head->length));
  size_t pos = out.size();
  for (const ChainNode* cell = head; cell != nullptr; cell = cell->prev) {
    out[--pos] = cell->record;
  }
  return out;
}

void StoreReadView::AppendChains(RecordChains* out) const {
  ForEachChain([out](storage::ObjectId id, const ChainNode* head) {
    (*out)[id] = ChainRecords(head);
  });
}

uint64_t StoreSnapshot::record_count() const {
  uint64_t total = 0;
  for (const StoreReadView& view : views_) {
    total += view.record_count();
  }
  return total;
}

uint64_t StoreSnapshot::live_record_count() const {
  uint64_t total = 0;
  for (const StoreReadView& view : views_) {
    total += view.live_record_count();
  }
  return total;
}

RecordChains StoreSnapshot::AllChains() const {
  RecordChains chains;
  for (const StoreReadView& view : views_) {
    view.AppendChains(&chains);
  }
  return chains;
}

const ChainNode* StoreSnapshot::head_for(storage::ObjectId id) const {
  return views_.empty() ? nullptr
                        : views_[ShardIndex(id, views_.size())].head_for(id);
}

std::vector<const ProvenanceRecord*> StoreSnapshot::ChainRecords(
    storage::ObjectId id) const {
  return StoreReadView::ChainRecords(head_for(id));
}

Result<std::vector<const ProvenanceRecord*>> StoreSnapshot::ExtractProvenance(
    storage::ObjectId subject) const {
  if (head_for(subject) == nullptr) {
    return Status::NotFound("no provenance records for object " +
                            std::to_string(subject));
  }
  std::vector<const ChainNode*> cells = CollectClosure(
      [this](storage::ObjectId id) { return head_for(id); }, {subject});
  std::vector<const ProvenanceRecord*> out;
  out.reserve(cells.size());
  for (const ChainNode* cell : cells) {
    out.push_back(cell->record);
  }
  std::sort(out.begin(), out.end(),
            [](const ProvenanceRecord* x, const ProvenanceRecord* y) {
              if (x->output.object_id != y->output.object_id) {
                return x->output.object_id < y->output.object_id;
              }
              return x->seq_id < y->seq_id;
            });
  return out;
}

}  // namespace provdb::provenance
