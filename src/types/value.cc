#include "types/value.h"

#include <cstring>

#include "common/string_util.h"

namespace jaguar {

const char* TypeIdToString(TypeId t) {
  switch (t) {
    case TypeId::kNull: return "NULL";
    case TypeId::kBool: return "BOOL";
    case TypeId::kInt: return "INT";
    case TypeId::kDouble: return "DOUBLE";
    case TypeId::kString: return "STRING";
    case TypeId::kBytes: return "BYTEARRAY";
  }
  return "?";
}

Result<TypeId> TypeIdFromString(const std::string& name) {
  const std::string n = ToUpper(name);
  if (n == "INT" || n == "INTEGER" || n == "BIGINT") return TypeId::kInt;
  if (n == "DOUBLE" || n == "FLOAT" || n == "REAL") return TypeId::kDouble;
  if (n == "STRING" || n == "VARCHAR" || n == "TEXT" || n == "CHAR") {
    return TypeId::kString;
  }
  if (n == "BYTEARRAY" || n == "BYTES" || n == "BLOB") return TypeId::kBytes;
  if (n == "BOOL" || n == "BOOLEAN") return TypeId::kBool;
  return InvalidArgument("unknown type name: " + name);
}

Result<double> Value::CoerceDouble() const {
  switch (type_) {
    case TypeId::kInt: return static_cast<double>(AsInt());
    case TypeId::kDouble: return AsDouble();
    case TypeId::kBool: return AsBool() ? 1.0 : 0.0;
    default:
      return InvalidArgument(std::string("cannot coerce ") +
                             TypeIdToString(type_) + " to DOUBLE");
  }
}

Result<int64_t> Value::CoerceInt() const {
  switch (type_) {
    case TypeId::kInt: return AsInt();
    case TypeId::kBool: return static_cast<int64_t>(AsBool() ? 1 : 0);
    default:
      return InvalidArgument(std::string("cannot coerce ") +
                             TypeIdToString(type_) + " to INT");
  }
}

bool Value::Equals(const Value& other) const {
  if (type_ != other.type_) {
    // Numeric cross-type equality (int vs double).
    if ((type_ == TypeId::kInt && other.type_ == TypeId::kDouble) ||
        (type_ == TypeId::kDouble && other.type_ == TypeId::kInt)) {
      return CoerceDouble().value() == other.CoerceDouble().value();
    }
    return false;
  }
  return data_ == other.data_;
}

Result<int> Value::Compare(const Value& other) const {
  auto three_way = [](auto a, auto b) { return a < b ? -1 : (a > b ? 1 : 0); };
  if (is_null() || other.is_null()) {
    return InvalidArgument("cannot compare NULL values");
  }
  const bool numeric_a = type_ == TypeId::kInt || type_ == TypeId::kDouble ||
                         type_ == TypeId::kBool;
  const bool numeric_b = other.type_ == TypeId::kInt ||
                         other.type_ == TypeId::kDouble ||
                         other.type_ == TypeId::kBool;
  if (numeric_a && numeric_b) {
    if (type_ == TypeId::kInt && other.type_ == TypeId::kInt) {
      return three_way(AsInt(), other.AsInt());
    }
    JAGUAR_ASSIGN_OR_RETURN(double a, CoerceDouble());
    JAGUAR_ASSIGN_OR_RETURN(double b, other.CoerceDouble());
    return three_way(a, b);
  }
  if (type_ != other.type_) {
    return InvalidArgument(std::string("cannot compare ") +
                           TypeIdToString(type_) + " with " +
                           TypeIdToString(other.type_));
  }
  switch (type_) {
    case TypeId::kString:
      return three_way(AsString().compare(other.AsString()), 0);
    case TypeId::kBytes:
      return Slice(AsBytes()).Compare(Slice(other.AsBytes()));
    default:
      return InvalidArgument("unorderable type");
  }
}

std::string Value::ToString() const {
  switch (type_) {
    case TypeId::kNull: return "NULL";
    case TypeId::kBool: return AsBool() ? "true" : "false";
    case TypeId::kInt: return std::to_string(AsInt());
    case TypeId::kDouble: return StringPrintf("%g", AsDouble());
    case TypeId::kString: return "'" + AsString() + "'";
    case TypeId::kBytes:
      return StringPrintf("<%zu bytes>", AsBytes().size());
  }
  return "?";
}

void Value::WriteTo(BufferWriter* w) const {
  w->PutU8(static_cast<uint8_t>(type_));
  switch (type_) {
    case TypeId::kNull: break;
    case TypeId::kBool: w->PutU8(AsBool() ? 1 : 0); break;
    case TypeId::kInt: w->PutI64(AsInt()); break;
    case TypeId::kDouble: w->PutDouble(AsDouble()); break;
    case TypeId::kString: w->PutString(AsString()); break;
    case TypeId::kBytes: w->PutLengthPrefixed(Slice(AsBytes())); break;
  }
}

Result<size_t> Value::Locate(Slice in, TypeId* type, Slice* payload) {
  if (in.empty()) return 0;
  const uint8_t tag = in[0];
  size_t header = 1;
  size_t width = 0;
  switch (static_cast<TypeId>(tag)) {
    case TypeId::kNull: break;
    case TypeId::kBool: width = 1; break;
    case TypeId::kInt:
    case TypeId::kDouble: width = 8; break;
    case TypeId::kString:
    case TypeId::kBytes:
      if (in.size() < 5) return 0;
      header = 5;
      width = static_cast<size_t>(in[1]) | static_cast<size_t>(in[2]) << 8 |
              static_cast<size_t>(in[3]) << 16 |
              static_cast<size_t>(in[4]) << 24;
      break;
    default:
      return Corruption("unknown value type tag " + std::to_string(tag));
  }
  if (in.size() - header < width) return 0;
  *type = static_cast<TypeId>(tag);
  *payload = Slice(in.data() + header, width);
  return header + width;
}

Value Value::FromPayload(TypeId type, Slice payload) {
  uint64_t bits = 0;
  if (type == TypeId::kInt || type == TypeId::kDouble) {
    for (int i = 0; i < 8; ++i) {
      bits |= static_cast<uint64_t>(payload[i]) << (8 * i);
    }
  }
  switch (type) {
    case TypeId::kNull: return Value::Null();
    case TypeId::kBool: return Value::Bool(payload[0] != 0);
    case TypeId::kInt: return Value::Int(static_cast<int64_t>(bits));
    case TypeId::kDouble: {
      double d;
      std::memcpy(&d, &bits, sizeof(d));
      return Value::Double(d);
    }
    case TypeId::kString: return Value::String(payload.ToString());
    case TypeId::kBytes: return Value::Bytes(payload.ToVector());
  }
  return Value::Null();
}

Result<Value> Value::ReadFrom(BufferReader* r) {
  TypeId type;
  Slice payload;
  JAGUAR_ASSIGN_OR_RETURN(size_t size, Locate(r->Peek(), &type, &payload));
  if (size == 0) return Corruption("truncated input while reading a value");
  JAGUAR_RETURN_IF_ERROR(r->ReadBytes(size).status());
  return FromPayload(type, payload);
}

size_t Value::SerializedSize() const {
  switch (type_) {
    case TypeId::kNull: return 1;
    case TypeId::kBool: return 2;
    case TypeId::kInt: return 9;
    case TypeId::kDouble: return 9;
    case TypeId::kString: return 5 + AsString().size();
    case TypeId::kBytes: return 5 + AsBytes().size();
  }
  return 1;
}

}  // namespace jaguar
