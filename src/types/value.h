#ifndef JAGUAR_TYPES_VALUE_H_
#define JAGUAR_TYPES_VALUE_H_

/// \file value.h
/// The runtime value system of the jaguar OR-DBMS.
///
/// Values cover the types the paper's workloads need: integers for UDF control
/// parameters and results, strings for predicates like `S.type = "tech"`, and
/// byte arrays for the paper's central `ByteArray` attribute (images, stock
/// histories, generic blobs).
///
/// Values implement the **ADT stream protocol** of Section 6.4: every type can
/// write itself to an output stream and reconstruct itself from an input
/// stream. The identical encoding is used on disk (tuples in slotted pages),
/// across the IPC boundary (Design 2), across the JagVM boundary (Design 3),
/// and on the network wire — which is exactly what makes UDFs portable between
/// client and server.

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace jaguar {

/// Type tags. The numeric values are part of the on-disk/on-wire format.
enum class TypeId : uint8_t {
  kNull = 0,
  kBool = 1,
  kInt = 2,     ///< 64-bit signed integer.
  kDouble = 3,  ///< IEEE-754 double.
  kString = 4,  ///< Variable-length character string.
  kBytes = 5,   ///< Variable-length byte array (the paper's ByteArray ADT).
};

/// \return Human/SQL-facing name of a type ("INT", "BYTEARRAY", ...).
const char* TypeIdToString(TypeId t);

/// Parses a SQL type name ("INT", "BIGINT", "DOUBLE", "FLOAT", "STRING",
/// "VARCHAR", "TEXT", "BYTEARRAY", "BYTES", "BLOB", "BOOL", "BOOLEAN").
Result<TypeId> TypeIdFromString(const std::string& name);

/// A dynamically typed SQL value.
class Value {
 public:
  /// Constructs a SQL NULL.
  Value() : type_(TypeId::kNull) {}

  static Value Null() { return Value(); }
  static Value Bool(bool v) { return Value(TypeId::kBool, v); }
  static Value Int(int64_t v) { return Value(TypeId::kInt, v); }
  static Value Double(double v) { return Value(TypeId::kDouble, v); }
  static Value String(std::string v) {
    return Value(TypeId::kString, std::move(v));
  }
  static Value Bytes(std::vector<uint8_t> v) {
    return Value(TypeId::kBytes, std::move(v));
  }

  TypeId type() const { return type_; }
  bool is_null() const { return type_ == TypeId::kNull; }

  /// Typed accessors; calling the wrong accessor is a programming error
  /// (checked via assert in debug builds through std::get).
  bool AsBool() const { return std::get<bool>(data_); }
  int64_t AsInt() const { return std::get<int64_t>(data_); }
  double AsDouble() const { return std::get<double>(data_); }
  const std::string& AsString() const { return std::get<std::string>(data_); }
  const std::vector<uint8_t>& AsBytes() const {
    return std::get<std::vector<uint8_t>>(data_);
  }
  std::vector<uint8_t>& MutableBytes() {
    return std::get<std::vector<uint8_t>>(data_);
  }

  /// Numeric coercion: int → double where needed. Errors on non-numerics.
  Result<double> CoerceDouble() const;
  /// Int accessor with coercion from bool; errors on other types.
  Result<int64_t> CoerceInt() const;

  /// Deep equality (NULL equals NULL here; SQL ternary logic is applied by the
  /// expression evaluator, not by this method).
  bool Equals(const Value& other) const;

  /// Three-way comparison for ORDER/predicates. Values must be comparable
  /// (same type family); returns InvalidArgument otherwise.
  Result<int> Compare(const Value& other) const;

  /// \return Display form used by result printers ("NULL", "42", "'abc'",
  /// "<N bytes>").
  std::string ToString() const;

  /// ADT stream protocol (§6.4): appends `type tag + payload`.
  void WriteTo(BufferWriter* w) const;
  /// ADT stream protocol: reads one value written by `WriteTo`.
  static Result<Value> ReadFrom(BufferReader* r);

  /// Finds the value encoded at the front of `in` without materializing
  /// it: its type, and its payload (the bytes after the tag and any length
  /// prefix). \return The encoded size, or 0 when `in` ends before the
  /// value does; Corruption on an unknown type tag.
  static Result<size_t> Locate(Slice in, TypeId* type, Slice* payload);
  /// Materializes a value found by `Locate`.
  static Value FromPayload(TypeId type, Slice payload);

  /// \return Serialized size in bytes (tag + payload).
  size_t SerializedSize() const;

 private:
  template <typename T>
  Value(TypeId t, T&& v) : type_(t), data_(std::forward<T>(v)) {}

  TypeId type_;
  std::variant<std::monostate, bool, int64_t, double, std::string,
               std::vector<uint8_t>>
      data_;
};

}  // namespace jaguar

#endif  // JAGUAR_TYPES_VALUE_H_
