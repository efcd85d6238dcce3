#ifndef JAGUAR_COMMON_BYTES_H_
#define JAGUAR_COMMON_BYTES_H_

/// \file bytes.h
/// Little-endian binary encode/decode helpers shared by tuple serialization,
/// the JagVM class-file format, the IPC shared-memory protocol and the network
/// wire protocol. `BufferWriter` appends to a growable byte vector;
/// `BufferReader` consumes a `Slice` with bounds-checked reads that fail with
/// `Corruption` rather than crashing — untrusted bytes (uploaded class files,
/// network frames) flow through these readers.

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"

namespace jaguar {

/// Appends fixed-width little-endian integers and length-prefixed blobs to a
/// byte buffer. Two modes share one call-site API:
///   - default: an owned, growable vector (`Release()` hands it off);
///   - fixed: an external caller-provided region (e.g. a shared-memory ring
///     reservation), so serializers write *directly into* their destination.
///     A write past the capacity sets `overflowed()` instead of growing —
///     the caller sizes the region from `SerializedSize` bounds and treats
///     overflow as an internal error.
class BufferWriter {
 public:
  BufferWriter() = default;

  /// Fixed mode over `cap` bytes at `buf` (not owned).
  BufferWriter(uint8_t* buf, size_t cap) : ext_(buf), ext_cap_(cap) {}

  void PutU8(uint8_t v) { Append(&v, 1); }
  void PutU16(uint16_t v) { PutLE(v, 2); }
  void PutU32(uint32_t v) { PutLE(v, 4); }
  void PutU64(uint64_t v) { PutLE(v, 8); }
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }

  void PutDouble(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    PutU64(bits);
  }

  /// Raw bytes, no length prefix.
  void PutBytes(Slice s) { Append(s.data(), s.size()); }

  /// u32 length prefix followed by the bytes.
  void PutLengthPrefixed(Slice s) {
    PutU32(static_cast<uint32_t>(s.size()));
    PutBytes(s);
  }
  void PutString(const std::string& s) { PutLengthPrefixed(Slice(s)); }

  /// Overwrites 4 bytes at `offset` with `v`; used to back-patch lengths.
  void PatchU32(size_t offset, uint32_t v) {
    uint8_t* base = ext_ != nullptr ? ext_ : buf_.data();
    for (int i = 0; i < 4; ++i) {
      base[offset + i] = static_cast<uint8_t>(v >> (8 * i));
    }
  }

  size_t size() const { return ext_ != nullptr ? ext_size_ : buf_.size(); }
  /// Fixed mode only: true once any Put overran the external capacity.
  bool overflowed() const { return overflowed_; }
  /// Owned mode only.
  const std::vector<uint8_t>& buffer() const { return buf_; }
  std::vector<uint8_t> Release() { return std::move(buf_); }
  Slice AsSlice() const {
    return ext_ != nullptr ? Slice(ext_, ext_size_) : Slice(buf_);
  }

 private:
  void Append(const uint8_t* p, size_t n) {
    if (ext_ != nullptr) {
      if (ext_size_ + n > ext_cap_) {
        overflowed_ = true;
        return;
      }
      std::memcpy(ext_ + ext_size_, p, n);
      ext_size_ += n;
    } else {
      buf_.insert(buf_.end(), p, p + n);
    }
  }

  void PutLE(uint64_t v, int nbytes) {
    uint8_t tmp[8];
    for (int i = 0; i < nbytes; ++i) {
      tmp[i] = static_cast<uint8_t>(v >> (8 * i));
    }
    Append(tmp, static_cast<size_t>(nbytes));
  }

  std::vector<uint8_t> buf_;
  uint8_t* ext_ = nullptr;
  size_t ext_cap_ = 0;
  size_t ext_size_ = 0;
  bool overflowed_ = false;
};

/// Bounds-checked consumer of a byte slice. Every read either succeeds or
/// returns `Corruption`; the reader never touches memory outside the slice.
class BufferReader {
 public:
  explicit BufferReader(Slice data) : data_(data) {}

  size_t remaining() const { return data_.size(); }
  bool AtEnd() const { return data_.empty(); }
  /// The unread bytes, without consuming them.
  Slice Peek() const { return data_; }

  Result<uint8_t> ReadU8() {
    if (data_.size() < 1) return Truncated("u8");
    uint8_t v = data_[0];
    data_.RemovePrefix(1);
    return v;
  }
  Result<uint16_t> ReadU16() { return ReadLE<uint16_t>(2, "u16"); }
  Result<uint32_t> ReadU32() { return ReadLE<uint32_t>(4, "u32"); }
  Result<uint64_t> ReadU64() { return ReadLE<uint64_t>(8, "u64"); }

  Result<int64_t> ReadI64() {
    JAGUAR_ASSIGN_OR_RETURN(uint64_t v, ReadU64());
    return static_cast<int64_t>(v);
  }

  Result<double> ReadDouble() {
    JAGUAR_ASSIGN_OR_RETURN(uint64_t bits, ReadU64());
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  /// Reads `n` raw bytes as a view into the underlying slice (zero copy).
  Result<Slice> ReadBytes(size_t n) {
    if (data_.size() < n) return Truncated("bytes");
    Slice out(data_.data(), n);
    data_.RemovePrefix(n);
    return out;
  }

  /// Reads a u32 length prefix followed by that many bytes.
  Result<Slice> ReadLengthPrefixed() {
    JAGUAR_ASSIGN_OR_RETURN(uint32_t len, ReadU32());
    return ReadBytes(len);
  }
  Result<std::string> ReadString() {
    JAGUAR_ASSIGN_OR_RETURN(Slice s, ReadLengthPrefixed());
    return s.ToString();
  }

 private:
  template <typename T>
  Result<T> ReadLE(int nbytes, const char* what) {
    if (data_.size() < static_cast<size_t>(nbytes)) return Truncated(what);
    uint64_t v = 0;
    for (int i = 0; i < nbytes; ++i) {
      v |= static_cast<uint64_t>(data_[i]) << (8 * i);
    }
    data_.RemovePrefix(nbytes);
    return static_cast<T>(v);
  }

  Status Truncated(const char* what) {
    return Corruption(std::string("truncated input while reading ") + what);
  }

  Slice data_;
};

/// Uniform framing for payloads that carry a batch of items: a u32 item
/// count followed by the items. Every batched producer/consumer pair (the
/// isolated-runner request/response protocol, the batching benchmarks) goes
/// through these helpers instead of hand-rolling its own count prefix, so a
/// single-item request is just a batch of one and the decoder rejects
/// implausible counts from a corrupted peer before looping on them.
struct BatchCodec {
  /// Upper bound on a decoded item count; anything larger is treated as
  /// corruption rather than a loop bound.
  static constexpr uint32_t kMaxCount = 1u << 20;

  static void WriteCount(BufferWriter* w, size_t count) {
    w->PutU32(static_cast<uint32_t>(count));
  }

  static Result<uint32_t> ReadCount(BufferReader* r) {
    JAGUAR_ASSIGN_OR_RETURN(uint32_t count, r->ReadU32());
    if (count > kMaxCount) {
      return Corruption("batch count exceeds the framing limit");
    }
    return count;
  }
};

}  // namespace jaguar

#endif  // JAGUAR_COMMON_BYTES_H_
