#ifndef JAGUAR_TYPES_TUPLE_H_
#define JAGUAR_TYPES_TUPLE_H_

/// \file tuple.h
/// A row of values, serializable through the ADT stream protocol so the same
/// bytes travel between heap pages, the IPC shared-memory segment, and the
/// network wire.

#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "types/schema.h"
#include "types/value.h"

namespace jaguar {

/// The columns a decode materializes. Columns outside the mask are still
/// walked — tag and length checked — but not copied, and read back as NULL.
class ColumnMask {
 public:
  /// An empty mask: no column is materialized (`COUNT(*)`).
  ColumnMask() = default;
  /// Every column, whatever the record's arity.
  static ColumnMask All() {
    ColumnMask m;
    m.all_ = true;
    return m;
  }

  void Add(size_t column) {
    if (column >= bits_.size()) bits_.resize(column + 1, false);
    bits_[column] = true;
  }
  bool Has(size_t column) const {
    return all_ || (column < bits_.size() && bits_[column]);
  }
  /// True when some column at or after `column` is in the mask.
  bool AnyFrom(size_t column) const { return all_ || column < bits_.size(); }
  bool empty() const { return !AnyFrom(0); }

  /// The columns of this mask that are not in `other`; every column minus
  /// anything stays every column.
  ColumnMask Minus(const ColumnMask& other) const {
    if (all_) return *this;
    ColumnMask m;
    for (size_t i = 0; i < bits_.size(); ++i) {
      if (bits_[i] && !other.Has(i)) m.Add(i);
    }
    return m;
  }

 private:
  bool all_ = false;
  std::vector<bool> bits_;  ///< Trimmed: the last bit, if any, is set.
};

class Tuple {
 public:
  Tuple() = default;
  explicit Tuple(std::vector<Value> values) : values_(std::move(values)) {}

  size_t num_values() const { return values_.size(); }
  const Value& value(size_t i) const { return values_[i]; }
  const std::vector<Value>& values() const { return values_; }
  std::vector<Value>& mutable_values() { return values_; }

  /// Serializes all values (self-describing; no schema needed to decode).
  void WriteTo(BufferWriter* w) const;
  static Result<Tuple> ReadFrom(BufferReader* r);

  /// Convenience: serialize to a fresh byte vector.
  std::vector<uint8_t> Serialize() const;
  /// Convenience: deserialize one tuple occupying the whole slice — the
  /// all-columns case of `DecodeColumns`.
  static Result<Tuple> Deserialize(Slice bytes);

  /// The one record decoder. Walks the tuple serialized in `bytes` and
  /// materializes the columns of `mask` into `out`, leaving its other
  /// columns untouched (NULL when `out` did not yet have the record's
  /// arity). A whole record gets every check `Deserialize` makes: arity
  /// bound, each column's tag and length, no trailing bytes.
  ///
  /// With `prefix`, `bytes` is only the front of a longer record (an
  /// overflow record's first chunk): the walk checks what the prefix
  /// holds and stops where it ends.
  /// \return false when the prefix ends before every masked column was
  ///         decoded — decode the whole record instead; true otherwise.
  static Result<bool> DecodeColumns(Slice bytes, const ColumnMask& mask,
                                    bool prefix, Tuple* out);

  /// Validates this tuple against a schema (arity and types; NULL matches any
  /// column type).
  Status CheckSchema(const Schema& schema) const;

  /// \return "(v1, v2, ...)".
  std::string ToString() const;

 private:
  /// Where a walk stopped: past the last column, at the end of a prefix
  /// with every masked column decoded, or at the end of a prefix short of
  /// a masked column.
  enum class Walk { kEnd, kPrefixEnd, kNeedWhole };

  /// `DecodeColumns` over the front of `in`; `*consumed` is the tuple's
  /// length when the walk reaches its end.
  static Result<Walk> DecodeFrom(Slice in, const ColumnMask& mask,
                                 bool prefix, Tuple* out, size_t* consumed);

  std::vector<Value> values_;
};

}  // namespace jaguar

#endif  // JAGUAR_TYPES_TUPLE_H_
