#ifndef JAGUAR_STORAGE_SLOTTED_PAGE_H_
#define JAGUAR_STORAGE_SLOTTED_PAGE_H_

/// \file slotted_page.h
/// Classic slotted-page record organization over a raw kPageSize buffer.
///
/// Layout:
///
///     [ header | slot array --> ...free... <-- cell data | lsn footer ]
///
/// * header (12 bytes): next_page_id (u32, heap-file chain), num_slots (u16),
///   cell_start (u16, offset of the lowest cell byte), reserved (u32).
/// * slot array: per slot, offset (u16) and size (u16). A slot with
///   offset == 0 is a tombstone (cell space reclaimable by Compact()).
/// * cells grow downward from kPageLsnOffset; the last 8 bytes hold the
///   page's WAL LSN (see page.h) and are never touched by this class.
///
/// `SlottedPage` is a *view*: it does not own the buffer. The buffer pool owns
/// frames; callers construct a view over a pinned frame.

#include <cstdint>
#include <optional>

#include "common/slice.h"
#include "common/status.h"
#include "storage/page.h"

namespace jaguar {

class SlottedPage {
 public:
  /// Wraps (does not initialize) an existing page buffer of kPageSize bytes.
  explicit SlottedPage(uint8_t* data) : data_(data) {}

  /// Formats the buffer as an empty slotted page.
  void Init();

  /// Heap-file chain pointer.
  PageId next_page_id() const;
  void set_next_page_id(PageId id);

  uint16_t num_slots() const;

  /// Bytes available for a new record (including its 4-byte slot), taking
  /// tombstone slot reuse into account for the slot bytes only.
  uint32_t FreeSpace() const;

  /// Maximum record payload a freshly initialized page can hold.
  static uint32_t MaxRecordSize();

  /// Inserts `record`; returns the slot index. Refuses, leaving the page
  /// untouched, exactly when `Fits` is false: InvalidArgument past
  /// MaxRecordSize, else ResourceExhausted (caller moves on to another page).
  Result<uint16_t> Insert(Slice record);

  /// True when `Insert` of a `size`-byte record would succeed, compacting
  /// first if it must: `size <= Room()`.
  bool Fits(uint32_t size) const {
    return static_cast<int64_t>(size) <= Room();
  }

  /// The largest record `Insert` accepts, compacting first if it must; -1
  /// when not even an empty record fits. Reads only the header and the slot
  /// directory, so a full page can be passed over without touching its
  /// cells.
  int32_t Room() const;

  /// \return View of the record in `slot`, or NotFound for tombstones /
  /// out-of-range slots.
  Result<Slice> Get(uint16_t slot) const;

  /// Tombstones `slot`. Space is reclaimed lazily by Compact().
  Status Delete(uint16_t slot);

  /// Rewrites live cells to eliminate holes left by deletions; slot indices
  /// are stable.
  void Compact();

  /// Validates internal invariants (used by property tests): slots in range,
  /// cells non-overlapping, cell_start consistent.
  Status CheckInvariants() const;

 private:
  static constexpr uint32_t kHeaderSize = 12;
  static constexpr uint32_t kSlotSize = 4;

  uint16_t GetU16(uint32_t off) const;
  void PutU16(uint32_t off, uint16_t v);
  uint32_t GetU32(uint32_t off) const;
  void PutU32(uint32_t off, uint32_t v);

  uint16_t cell_start() const { return GetU16(6); }
  void set_cell_start(uint16_t v) { PutU16(6, v); }
  void set_num_slots(uint16_t v) { PutU16(4, v); }

  uint32_t SlotOffsetPos(uint16_t slot) const {
    return kHeaderSize + slot * kSlotSize;
  }

  uint8_t* data_;
};

}  // namespace jaguar

#endif  // JAGUAR_STORAGE_SLOTTED_PAGE_H_
