#ifndef JAGUAR_WAL_WAL_RECORD_H_
#define JAGUAR_WAL_WAL_RECORD_H_

/// \file wal_record.h
/// Redo log record format and its on-disk framing.
///
/// Every page record is a physical *after-image*: it says "these bytes of
/// page P now look like this", which makes replay idempotent — applying a
/// record twice yields the same page. Records are written inside CRC-framed
/// chunks:
///
///     frame   := len (u32) | crc32 (u32, over payload) | payload
///     payload := lsn (u64) | type (u8) | page_id (u32) | offset (u32) |
///                aux (u32) | data_len (u32) | data
///
/// A page edit is one kPageRuns record whose data lists only the bytes the
/// edit changed, as runs in ascending page order:
///
///     data := { run_offset (u16) | run_len (u16) | run_len bytes }*
///
/// The older kPageWrite record (one range at `offset`) is no longer written
/// but still decodes and replays, as one run, so logs from earlier builds
/// recover.
///
/// The CRC plus the "stored LSN must equal the LSN implied by the file
/// offset" rule let the recovery tail scan stop cleanly at the first torn or
/// garbage append instead of replaying it.

#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/slice.h"
#include "common/status.h"
#include "storage/page.h"

namespace jaguar::wal {

/// Log sequence number. LSNs are byte offsets into the logical log stream
/// (monotonic across checkpoint truncations via a persisted base), so "LSN of
/// the next record" is always `this record's LSN + its frame size`. LSN 0 is
/// reserved for "never logged" — fresh pages carry it in their footer.
using Lsn = uint64_t;

inline constexpr Lsn kNullLsn = 0;

enum class WalRecordType : uint8_t {
  /// After-image of one byte range of a page at `offset`. Written by earlier
  /// builds for every page edit; kept so their logs still replay.
  kPageWrite = 1,
  /// The file grew to include `page_id`; replay re-extends a shorter file.
  kPageAlloc = 2,
  /// `page_id` went on the free list. Marker only: the physical link/header
  /// changes travel in their own page records.
  kPageFree = 3,
  /// The catalog root moved to `aux`. Marker only, like kPageFree.
  kCatalogRoot = 4,
  /// Start-of-log checkpoint: everything at or below this LSN is on disk in
  /// the data file. `aux` records the data file's page count.
  kCheckpoint = 5,
  /// After-images of the byte runs one page edit changed (tuple inserts and
  /// deletes, header-field updates, page formats): `data` is the runs.
  kPageRuns = 6,
};

inline constexpr uint8_t kMinWalRecordType = 1;
inline constexpr uint8_t kMaxWalRecordType = 6;

struct WalRecord {
  Lsn lsn = kNullLsn;
  WalRecordType type = WalRecordType::kPageWrite;
  PageId page_id = kInvalidPageId;
  /// Byte offset within the page of `data` (kPageWrite only).
  uint32_t offset = 0;
  /// Type-specific scalar (catalog root id, checkpoint page count).
  uint32_t aux = 0;
  /// After-image bytes (kPageWrite) or encoded runs (kPageRuns).
  std::vector<uint8_t> data;

  bool operator==(const WalRecord& o) const {
    return lsn == o.lsn && type == o.type && page_id == o.page_id &&
           offset == o.offset && aux == o.aux && data == o.data;
  }
};

/// Frame header: len + crc.
inline constexpr uint32_t kWalFrameHeaderSize = 8;
/// Payload fields before `data`: lsn + type + page_id + offset + aux +
/// data_len.
inline constexpr uint32_t kWalPayloadHeaderSize = 8 + 1 + 4 + 4 + 4 + 4;
/// Upper bound on one payload; a record never carries more than a page.
inline constexpr uint32_t kMaxWalPayloadSize =
    kWalPayloadHeaderSize + kPageSize;

/// One run of a kPageRuns record: `len` bytes of the page at `offset`.
struct PageRun {
  uint16_t offset;
  uint16_t len;
};

/// Decodes one payload. Validates the type tag, that a kPageWrite's byte
/// range lies within a page, that a kPageRuns record's runs are non-empty,
/// ascending, non-overlapping and below the LSN footer, and that no trailing
/// bytes remain. Returns Corruption (never crashes) on malformed input.
Result<WalRecord> DecodeWalRecord(Slice payload);

/// Appends the full frame (len | crc | payload) for `rec` to `out`, writing
/// each byte once and running the CRC over the payload where it lies.
/// \return the frame's size in bytes.
size_t AppendWalFrame(const WalRecord& rec, std::vector<uint8_t>* out);

/// Appends the kPageRuns frame for `runs` of `page` to `out`, copying each
/// run straight from the page. `runs` must be what DecodeWalRecord accepts
/// (non-empty, ascending, non-overlapping and below kPageLsnOffset), and
/// their bytes plus 4-byte run headers at most kPageSize.
/// \return the frame's size in bytes.
size_t AppendPageRunsFrame(Lsn lsn, PageId page_id, const uint8_t* page,
                           std::span<const PageRun> runs,
                           std::vector<uint8_t>* out);

/// Copies the after-images of a decoded kPageWrite or kPageRuns record into
/// `page` (kPageSize bytes). The page's LSN footer is the caller's.
void ApplyPageRecord(const WalRecord& rec, uint8_t* page);

/// Parses the frame at the head of `buf`. On success also returns the frame
/// size so callers can advance. Any truncation, bad length, CRC mismatch or
/// payload corruption yields a clean non-OK status — this is the function the
/// recovery tail scan leans on.
Result<std::pair<WalRecord, size_t>> ReadWalFrame(Slice buf);

}  // namespace jaguar::wal

#endif  // JAGUAR_WAL_WAL_RECORD_H_
