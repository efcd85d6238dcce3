#include "wal/wal_record.h"

#include <cstring>

#include "common/crc32.h"
#include "common/string_util.h"

namespace jaguar::wal {

namespace {

/// Bytes of a run's header in kPageRuns data: offset (u16) + len (u16).
constexpr uint32_t kPageRunHeaderSize = 4;

/// Appends the frame header, with the CRC left for SealFrame, and the
/// payload fields before `data` to `out`. Returns the frame's offset.
size_t BeginFrame(Lsn lsn, WalRecordType type, PageId page_id,
                  uint32_t offset, uint32_t aux, uint32_t data_len,
                  std::vector<uint8_t>* out) {
  uint8_t head[kWalFrameHeaderSize + kWalPayloadHeaderSize];
  BufferWriter w(head, sizeof(head));
  w.PutU32(kWalPayloadHeaderSize + data_len);
  w.PutU32(0);  // crc
  w.PutU64(lsn);
  w.PutU8(static_cast<uint8_t>(type));
  w.PutU32(page_id);
  w.PutU32(offset);
  w.PutU32(aux);
  w.PutU32(data_len);
  const size_t at = out->size();
  out->insert(out->end(), head, head + sizeof(head));
  return at;
}

/// Stores the CRC of the frame at `at`, whose payload runs to the end of
/// `out`. Returns the frame's size.
size_t SealFrame(size_t at, std::vector<uint8_t>* out) {
  uint8_t* frame = out->data() + at;
  const size_t size = out->size() - at;
  // The CRC is the frame header's second u32, after the length.
  BufferWriter(frame + 4, 4)
      .PutU32(Crc32(frame + kWalFrameHeaderSize, size - kWalFrameHeaderSize));
  return size;
}

/// Checks kPageRuns data: every run is non-empty, starts at or after the
/// previous run's end, stops short of the LSN footer and lies inside `data`.
Status CheckPageRuns(Slice data) {
  BufferReader r(data);
  uint32_t next = 0;  // first offset the next run may start at
  while (!r.AtEnd()) {
    JAGUAR_ASSIGN_OR_RETURN(uint16_t offset, r.ReadU16());
    JAGUAR_ASSIGN_OR_RETURN(uint16_t len, r.ReadU16());
    if (len == 0) return Corruption("empty wal page run");
    if (offset < next) {
      return Corruption("wal page runs overlap or are out of order");
    }
    next = uint32_t{offset} + len;
    if (next > kPageLsnOffset) {
      return Corruption("wal page run reaches the lsn footer");
    }
    JAGUAR_RETURN_IF_ERROR(r.ReadBytes(len).status());
  }
  return Status::OK();
}

}  // namespace

Result<WalRecord> DecodeWalRecord(Slice payload) {
  BufferReader r(payload);
  WalRecord rec;
  JAGUAR_ASSIGN_OR_RETURN(rec.lsn, r.ReadU64());
  JAGUAR_ASSIGN_OR_RETURN(uint8_t type, r.ReadU8());
  if (type < kMinWalRecordType || type > kMaxWalRecordType) {
    return Corruption(StringPrintf("bad wal record type %u", type));
  }
  rec.type = static_cast<WalRecordType>(type);
  JAGUAR_ASSIGN_OR_RETURN(rec.page_id, r.ReadU32());
  JAGUAR_ASSIGN_OR_RETURN(rec.offset, r.ReadU32());
  JAGUAR_ASSIGN_OR_RETURN(rec.aux, r.ReadU32());
  JAGUAR_ASSIGN_OR_RETURN(Slice data, r.ReadLengthPrefixed());
  if (!r.AtEnd()) return Corruption("trailing bytes after wal record");
  if (rec.type == WalRecordType::kPageWrite) {
    if (rec.offset > kPageSize || data.size() > kPageSize ||
        rec.offset + data.size() > kPageSize) {
      return Corruption("wal page write outside page bounds");
    }
  } else if (rec.type == WalRecordType::kPageRuns) {
    JAGUAR_RETURN_IF_ERROR(CheckPageRuns(data));
  }
  rec.data = data.ToVector();
  return rec;
}

size_t AppendWalFrame(const WalRecord& rec, std::vector<uint8_t>* out) {
  const size_t at =
      BeginFrame(rec.lsn, rec.type, rec.page_id, rec.offset, rec.aux,
                 static_cast<uint32_t>(rec.data.size()), out);
  out->insert(out->end(), rec.data.begin(), rec.data.end());
  return SealFrame(at, out);
}

size_t AppendPageRunsFrame(Lsn lsn, PageId page_id, const uint8_t* page,
                           std::span<const PageRun> runs,
                           std::vector<uint8_t>* out) {
  uint32_t data_len = 0;
  for (const PageRun& run : runs) data_len += kPageRunHeaderSize + run.len;
  const size_t at = BeginFrame(lsn, WalRecordType::kPageRuns, page_id,
                               /*offset=*/0, /*aux=*/0, data_len, out);
  for (const PageRun& run : runs) {
    uint8_t head[kPageRunHeaderSize];
    BufferWriter w(head, sizeof(head));
    w.PutU16(run.offset);
    w.PutU16(run.len);
    out->insert(out->end(), head, head + sizeof(head));
    out->insert(out->end(), page + run.offset, page + run.offset + run.len);
  }
  return SealFrame(at, out);
}

void ApplyPageRecord(const WalRecord& rec, uint8_t* page) {
  // A kPageWrite is one run at `offset` with no run header.
  const bool headed = rec.type == WalRecordType::kPageRuns;
  const uint8_t* p = rec.data.data();
  const uint8_t* end = p + rec.data.size();
  while (p < end) {
    uint32_t offset = rec.offset;
    uint32_t len = static_cast<uint32_t>(end - p);
    if (headed) {
      BufferReader r(Slice(p, kPageRunHeaderSize));
      offset = r.ReadU16().value();
      len = r.ReadU16().value();
      p += kPageRunHeaderSize;
    }
    std::memcpy(page + offset, p, len);
    p += len;
  }
}

Result<std::pair<WalRecord, size_t>> ReadWalFrame(Slice buf) {
  BufferReader r(buf);
  JAGUAR_ASSIGN_OR_RETURN(uint32_t len, r.ReadU32());
  JAGUAR_ASSIGN_OR_RETURN(uint32_t crc, r.ReadU32());
  if (len < kWalPayloadHeaderSize || len > kMaxWalPayloadSize) {
    return Corruption(StringPrintf("implausible wal frame length %u", len));
  }
  JAGUAR_ASSIGN_OR_RETURN(Slice payload, r.ReadBytes(len));
  if (Crc32(payload.data(), payload.size()) != crc) {
    return Corruption("wal frame crc mismatch");
  }
  JAGUAR_ASSIGN_OR_RETURN(WalRecord rec, DecodeWalRecord(payload));
  return std::make_pair(std::move(rec),
                        static_cast<size_t>(kWalFrameHeaderSize + len));
}

}  // namespace jaguar::wal
