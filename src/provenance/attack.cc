#include "provenance/attack.h"

namespace provdb::provenance::attacks {

namespace {

Status CheckIndex(const RecipientBundle& bundle, size_t record_index) {
  if (record_index >= bundle.records.size()) {
    return Status::OutOfRange("record index " + std::to_string(record_index) +
                              " out of range");
  }
  return Status::OK();
}

}  // namespace

Status TamperRecordOutputHash(RecipientBundle* bundle, size_t record_index) {
  PROVDB_RETURN_IF_ERROR(CheckIndex(*bundle, record_index));
  ProvenanceRecord& rec = bundle->records[record_index];
  if (rec.output.state_hash.empty()) {
    return Status::FailedPrecondition("record has no output hash to tamper");
  }
  rec.output.state_hash.mutable_data()[0] ^= 0x01;
  return Status::OK();
}

Status TamperRecordInputHash(RecipientBundle* bundle, size_t record_index,
                             size_t input_index) {
  PROVDB_RETURN_IF_ERROR(CheckIndex(*bundle, record_index));
  ProvenanceRecord& rec = bundle->records[record_index];
  if (input_index >= rec.inputs.size()) {
    return Status::OutOfRange("input index out of range");
  }
  rec.inputs[input_index].state_hash.mutable_data()[0] ^= 0x01;
  return Status::OK();
}

Status RemoveRecord(RecipientBundle* bundle, size_t record_index) {
  PROVDB_RETURN_IF_ERROR(CheckIndex(*bundle, record_index));
  bundle->records.erase(bundle->records.begin() + record_index);
  return Status::OK();
}

Status InsertForgedRecord(RecipientBundle* bundle,
                          const crypto::Participant& attacker,
                          const ChecksumEngine& engine,
                          storage::ObjectId victim_object, SeqId seq_id,
                          const crypto::Digest& fake_pre,
                          const crypto::Digest& fake_post) {
  // Find the record currently holding `seq_id` (if any) to splice before,
  // and the forged record's "previous" checksum.
  Bytes prev_checksum;
  for (const ProvenanceRecord& rec : bundle->records) {
    if (rec.output.object_id == victim_object && rec.seq_id + 1 == seq_id) {
      prev_checksum = rec.checksum;
    }
  }

  ProvenanceRecord forged;
  forged.seq_id = seq_id;
  forged.participant = attacker.id();
  forged.op = OperationType::kUpdate;
  forged.inputs.push_back(ObjectState{victim_object, fake_pre});
  forged.output = ObjectState{victim_object, fake_post};
  PROVDB_ASSIGN_OR_RETURN(
      forged.checksum,
      engine.SignPayload(attacker.signer(), forged.op,
                         engine.BuildPayload(forged, {prev_checksum})));

  // Renumber existing records at seq_id and above to make room.
  for (ProvenanceRecord& rec : bundle->records) {
    if (rec.output.object_id == victim_object && rec.seq_id >= seq_id) {
      ++rec.seq_id;
    }
  }
  bundle->records.push_back(std::move(forged));
  return Status::OK();
}

Status TamperDataValue(RecipientBundle* bundle, storage::ObjectId node,
                       const storage::Value& new_value) {
  return bundle->data.TamperValue(node, new_value);
}

Status ReattributeProvenance(RecipientBundle* bundle,
                             SubtreeSnapshot other_data) {
  bundle->subject = other_data.root();
  bundle->data = std::move(other_data);
  return Status::OK();
}

Status RenameDataObject(RecipientBundle* bundle, storage::ObjectId new_root) {
  bundle->data.TamperRootId(new_root);
  bundle->subject = new_root;
  return Status::OK();
}

Status ReassignRecordParticipant(RecipientBundle* bundle, size_t record_index,
                                 crypto::ParticipantId scapegoat) {
  PROVDB_RETURN_IF_ERROR(CheckIndex(*bundle, record_index));
  bundle->records[record_index].participant = scapegoat;
  return Status::OK();
}

Status RemoveRecordAndRenumber(RecipientBundle* bundle, size_t record_index) {
  PROVDB_RETURN_IF_ERROR(CheckIndex(*bundle, record_index));
  ProvenanceRecord removed = bundle->records[record_index];
  bundle->records.erase(bundle->records.begin() + record_index);
  for (ProvenanceRecord& rec : bundle->records) {
    if (rec.output.object_id == removed.output.object_id &&
        rec.seq_id > removed.seq_id) {
      --rec.seq_id;
    }
  }
  return Status::OK();
}

}  // namespace provdb::provenance::attacks
