#include "types/tuple.h"

#include "common/string_util.h"

namespace jaguar {

namespace {

constexpr uint32_t kMaxArity = 1u << 20;

Status Truncated(const char* what) {
  return Corruption(std::string("truncated input while reading ") + what);
}

}  // namespace

void Tuple::WriteTo(BufferWriter* w) const {
  w->PutU32(static_cast<uint32_t>(values_.size()));
  for (const Value& v : values_) v.WriteTo(w);
}

Result<Tuple::Walk> Tuple::DecodeFrom(Slice in, const ColumnMask& mask,
                                      bool prefix, Tuple* out,
                                      size_t* consumed) {
  Slice rest = in;
  if (rest.size() < 4) {
    if (prefix) return Walk::kNeedWhole;
    return Truncated("u32");
  }
  const uint32_t n = static_cast<uint32_t>(rest[0]) |
                     static_cast<uint32_t>(rest[1]) << 8 |
                     static_cast<uint32_t>(rest[2]) << 16 |
                     static_cast<uint32_t>(rest[3]) << 24;
  rest.RemovePrefix(4);
  if (n > kMaxArity) return Corruption("implausible tuple arity");
  // Every column takes at least its tag byte: refuse a corrupt arity before
  // sizing the tuple for it.
  if (!prefix && n > rest.size()) return Truncated("tuple columns");
  std::vector<Value>& values = out->values_;
  // A tuple that already has the record's arity keeps its other columns (a
  // second decode phase); otherwise it is rebuilt column by column.
  const bool fresh = values.size() != n;
  if (fresh) {
    values.clear();
    values.reserve(n);
  }
  for (uint32_t i = 0; i < n; ++i) {
    TypeId type;
    Slice payload;
    JAGUAR_ASSIGN_OR_RETURN(size_t size,
                            Value::Locate(rest, &type, &payload));
    if (size == 0) {
      if (!prefix) return Truncated("a value");
      // A prefix may end anywhere; that is a miss only while a masked
      // column is still ahead.
      if (fresh) values.resize(n);
      return mask.AnyFrom(i) ? Walk::kNeedWhole : Walk::kPrefixEnd;
    }
    if (fresh) {
      values.push_back(mask.Has(i) ? Value::FromPayload(type, payload)
                                   : Value());
    } else if (mask.Has(i)) {
      values[i] = Value::FromPayload(type, payload);
    }
    rest.RemovePrefix(size);
  }
  *consumed = in.size() - rest.size();
  return Walk::kEnd;
}

Result<Tuple> Tuple::ReadFrom(BufferReader* r) {
  Tuple t;
  size_t consumed = 0;
  JAGUAR_RETURN_IF_ERROR(
      DecodeFrom(r->Peek(), ColumnMask::All(), false, &t, &consumed)
          .status());
  JAGUAR_RETURN_IF_ERROR(r->ReadBytes(consumed).status());
  return t;
}

std::vector<uint8_t> Tuple::Serialize() const {
  BufferWriter w;
  WriteTo(&w);
  return w.Release();
}

Result<Tuple> Tuple::Deserialize(Slice bytes) {
  Tuple t;
  JAGUAR_RETURN_IF_ERROR(
      DecodeColumns(bytes, ColumnMask::All(), /*prefix=*/false, &t).status());
  return t;
}

Result<bool> Tuple::DecodeColumns(Slice bytes, const ColumnMask& mask,
                                  bool prefix, Tuple* out) {
  size_t consumed = 0;
  JAGUAR_ASSIGN_OR_RETURN(Walk walk,
                          DecodeFrom(bytes, mask, prefix, out, &consumed));
  switch (walk) {
    case Walk::kNeedWhole:
      return false;
    case Walk::kPrefixEnd:
      return true;
    case Walk::kEnd:
      // A tuple that ends inside a prefix leaves the rest of its record
      // over: trailing bytes, just as on a whole record.
      if (prefix || consumed != bytes.size()) {
        return Corruption("trailing bytes after tuple");
      }
      return true;
  }
  return Internal("unhandled decode walk");
}

Status Tuple::CheckSchema(const Schema& schema) const {
  if (values_.size() != schema.num_columns()) {
    return InvalidArgument(StringPrintf(
        "tuple has %zu values but schema has %zu columns", values_.size(),
        schema.num_columns()));
  }
  for (size_t i = 0; i < values_.size(); ++i) {
    if (values_[i].is_null()) continue;
    TypeId want = schema.column(i).type;
    TypeId got = values_[i].type();
    const bool numeric_ok =
        want == TypeId::kDouble && got == TypeId::kInt;  // implicit widening
    if (got != want && !numeric_ok) {
      return InvalidArgument(StringPrintf(
          "column %zu (%s) expects %s but value is %s", i,
          schema.column(i).name.c_str(), TypeIdToString(want),
          TypeIdToString(got)));
    }
  }
  return Status::OK();
}

std::string Tuple::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < values_.size(); ++i) {
    if (i > 0) out += ", ";
    out += values_[i].ToString();
  }
  out += ")";
  return out;
}

}  // namespace jaguar
