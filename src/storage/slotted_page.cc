#include "storage/slotted_page.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/string_util.h"

namespace jaguar {

uint16_t SlottedPage::GetU16(uint32_t off) const {
  return static_cast<uint16_t>(data_[off] | (data_[off + 1] << 8));
}
void SlottedPage::PutU16(uint32_t off, uint16_t v) {
  data_[off] = static_cast<uint8_t>(v);
  data_[off + 1] = static_cast<uint8_t>(v >> 8);
}
uint32_t SlottedPage::GetU32(uint32_t off) const {
  return static_cast<uint32_t>(data_[off]) |
         (static_cast<uint32_t>(data_[off + 1]) << 8) |
         (static_cast<uint32_t>(data_[off + 2]) << 16) |
         (static_cast<uint32_t>(data_[off + 3]) << 24);
}
void SlottedPage::PutU32(uint32_t off, uint32_t v) {
  data_[off] = static_cast<uint8_t>(v);
  data_[off + 1] = static_cast<uint8_t>(v >> 8);
  data_[off + 2] = static_cast<uint8_t>(v >> 16);
  data_[off + 3] = static_cast<uint8_t>(v >> 24);
}

void SlottedPage::Init() {
  // Leave the LSN footer alone: it belongs to the WAL layer, and a re-Init of
  // a recycled page must not roll its LSN backwards.
  std::memset(data_, 0, kPageLsnOffset);
  PutU32(0, kInvalidPageId);  // next_page_id
  set_num_slots(0);
  set_cell_start(static_cast<uint16_t>(kPageLsnOffset));
}

PageId SlottedPage::next_page_id() const { return GetU32(0); }
void SlottedPage::set_next_page_id(PageId id) { PutU32(0, id); }

uint16_t SlottedPage::num_slots() const { return GetU16(4); }

uint32_t SlottedPage::FreeSpace() const {
  uint32_t slot_end = kHeaderSize + num_slots() * kSlotSize;
  uint32_t start = cell_start();
  return start > slot_end ? start - slot_end : 0;
}

uint32_t SlottedPage::MaxRecordSize() {
  return kPageLsnOffset - kHeaderSize - kSlotSize;
}

Result<uint16_t> SlottedPage::Insert(Slice record) {
  if (record.size() > MaxRecordSize()) {
    return InvalidArgument("record larger than page capacity");
  }
  const uint32_t size = static_cast<uint32_t>(record.size());
  if (!Fits(size)) return ResourceExhausted("page full");

  // Prefer reusing a tombstone slot (costs 0 new slot bytes).
  uint16_t slot = num_slots();
  for (uint16_t i = 0; i < num_slots(); ++i) {
    if (GetU16(SlotOffsetPos(i)) == 0) {
      slot = i;
      break;
    }
  }
  const bool reused = slot < num_slots();
  // Deleted cells may still hold the room `Fits` counted on.
  if (FreeSpace() < size + (reused ? 0 : kSlotSize)) Compact();

  uint16_t new_start = static_cast<uint16_t>(cell_start() - size);
  if (size > 0) std::memcpy(data_ + new_start, record.data(), size);
  set_cell_start(new_start);
  // Cells with size 0 need a non-zero offset marker so the slot is not a
  // tombstone; point them at the current cell_start.
  PutU16(SlotOffsetPos(slot), size > 0 ? new_start : cell_start());
  PutU16(SlotOffsetPos(slot) + 2, static_cast<uint16_t>(size));
  if (!reused) set_num_slots(static_cast<uint16_t>(num_slots() + 1));
  return slot;
}

int32_t SlottedPage::Room() const {
  // Compaction packs the live cells against the page end, so the room it
  // leaves is everything between the slot directory and the live bytes.
  uint32_t live = 0;
  bool tombstone = false;
  for (uint16_t i = 0; i < num_slots(); ++i) {
    if (GetU16(SlotOffsetPos(i)) == 0) {
      tombstone = true;
    } else {
      live += GetU16(SlotOffsetPos(i) + 2);
    }
  }
  const int64_t room = static_cast<int64_t>(kPageLsnOffset) - kHeaderSize -
                       num_slots() * kSlotSize - live -
                       (tombstone ? 0 : kSlotSize);
  return static_cast<int32_t>(std::max<int64_t>(room, -1));
}

Result<Slice> SlottedPage::Get(uint16_t slot) const {
  if (slot >= num_slots()) return NotFound("slot out of range");
  uint16_t off = GetU16(SlotOffsetPos(slot));
  if (off == 0) return NotFound("slot deleted");
  uint16_t size = GetU16(SlotOffsetPos(slot) + 2);
  return Slice(data_ + off, size);
}

Status SlottedPage::Delete(uint16_t slot) {
  if (slot >= num_slots()) return NotFound("slot out of range");
  if (GetU16(SlotOffsetPos(slot)) == 0) return NotFound("slot already deleted");
  PutU16(SlotOffsetPos(slot), 0);
  PutU16(SlotOffsetPos(slot) + 2, 0);
  return Status::OK();
}

void SlottedPage::Compact() {
  struct LiveCell {
    uint16_t slot;
    uint16_t off;
    uint16_t size;
  };
  std::vector<LiveCell> cells;
  for (uint16_t i = 0; i < num_slots(); ++i) {
    uint16_t off = GetU16(SlotOffsetPos(i));
    if (off == 0) continue;
    cells.push_back({i, off, GetU16(SlotOffsetPos(i) + 2)});
  }
  // Move cells to the end of the page, highest original offset first, so
  // memmove never overwrites bytes it has yet to copy.
  std::sort(cells.begin(), cells.end(),
            [](const LiveCell& a, const LiveCell& b) { return a.off > b.off; });
  uint16_t write_end = static_cast<uint16_t>(kPageLsnOffset);
  for (const LiveCell& c : cells) {
    uint16_t new_off = static_cast<uint16_t>(write_end - c.size);
    if (c.size > 0) std::memmove(data_ + new_off, data_ + c.off, c.size);
    PutU16(SlotOffsetPos(c.slot), c.size > 0 ? new_off : write_end);
    write_end = new_off;
  }
  set_cell_start(write_end);
}

Status SlottedPage::CheckInvariants() const {
  uint32_t slot_end = kHeaderSize + num_slots() * kSlotSize;
  if (slot_end > kPageSize) return Corruption("slot array past page end");
  if (cell_start() < slot_end) return Corruption("cells overlap slot array");
  std::vector<std::pair<uint16_t, uint16_t>> ranges;
  for (uint16_t i = 0; i < num_slots(); ++i) {
    uint16_t off = GetU16(SlotOffsetPos(i));
    if (off == 0) continue;
    uint16_t size = GetU16(SlotOffsetPos(i) + 2);
    if (off < cell_start()) return Corruption("cell before cell_start");
    if (static_cast<uint32_t>(off) + size > kPageLsnOffset) {
      return Corruption("cell past the lsn footer");
    }
    if (size > 0) ranges.emplace_back(off, static_cast<uint16_t>(off + size));
  }
  std::sort(ranges.begin(), ranges.end());
  for (size_t i = 1; i < ranges.size(); ++i) {
    if (ranges[i].first < ranges[i - 1].second) {
      return Corruption(StringPrintf("overlapping cells at offset %u",
                                     ranges[i].first));
    }
  }
  return Status::OK();
}

}  // namespace jaguar
