#include "storage/value.h"

#include <cstring>

#include "common/hex.h"
#include "common/varint.h"

namespace provdb::storage {

void Value::CanonicalEncode(Bytes* out) const {
  AppendByte(out, static_cast<uint8_t>(type()));
  switch (type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt:
      AppendVarintSigned64(out, AsInt());
      break;
    case ValueType::kDouble: {
      // Bit-exact encoding; NaN payloads and signed zeros round-trip.
      uint64_t bits;
      double d = AsDouble();
      std::memcpy(&bits, &d, sizeof(bits));
      AppendFixed64(out, bits);
      break;
    }
    case ValueType::kString:
      AppendLengthPrefixed(out, ByteView(AsString()));
      break;
    case ValueType::kBytes:
      AppendLengthPrefixed(out, AsBlob());
      break;
  }
}

Result<Value> Value::CanonicalDecode(ByteView data, size_t* consumed) {
  if (data.empty()) {
    return Status::Corruption("empty value encoding");
  }
  VarintReader reader(data.subview(1));
  Value out;
  switch (static_cast<ValueType>(data[0])) {
    case ValueType::kNull:
      out = Value::Null();
      break;
    case ValueType::kInt: {
      PROVDB_ASSIGN_OR_RETURN(int64_t v, reader.ReadVarintSigned64());
      out = Value::Int(v);
      break;
    }
    case ValueType::kDouble: {
      PROVDB_ASSIGN_OR_RETURN(ByteView raw, reader.ReadRaw(8));
      uint64_t bits = ReadFixed64(raw, 0);
      double d;
      std::memcpy(&d, &bits, sizeof(d));
      out = Value::Double(d);
      break;
    }
    case ValueType::kString: {
      PROVDB_ASSIGN_OR_RETURN(Bytes raw, reader.ReadLengthPrefixed());
      out = Value::String(ByteView(raw).ToString());
      break;
    }
    case ValueType::kBytes: {
      PROVDB_ASSIGN_OR_RETURN(Bytes raw, reader.ReadLengthPrefixed());
      out = Value::Blob(std::move(raw));
      break;
    }
    default:
      return Status::Corruption("unknown value type tag");
  }
  if (consumed != nullptr) {
    *consumed = 1 + reader.position();
  }
  return out;
}

size_t Value::ApproximateSize() const {
  switch (type()) {
    case ValueType::kNull:
      return 1;
    case ValueType::kInt:
      return 8;
    case ValueType::kDouble:
      return 8;
    case ValueType::kString:
      return AsString().size();
    case ValueType::kBytes:
      return AsBlob().size();
  }
  return 0;
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "null";
    case ValueType::kInt:
      return std::to_string(AsInt());
    case ValueType::kDouble:
      return std::to_string(AsDouble());
    case ValueType::kString:
      return "\"" + AsString() + "\"";
    case ValueType::kBytes:
      return "0x" + HexEncode(AsBlob());
  }
  return "?";
}

}  // namespace provdb::storage
