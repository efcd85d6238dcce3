#include "storage/table_heap.h"

#include <algorithm>
#include <cstring>

#include "common/bytes.h"
#include "common/string_util.h"
#include "storage/page_edit.h"
#include "storage/slotted_page.h"

namespace jaguar {

namespace {
constexpr uint8_t kInlineTag = 0x00;
constexpr uint8_t kOverflowTag = 0x01;
constexpr uint32_t kOverflowHeader = 8;  // next (u32) + chunk_len (u32)
// Chunks stop short of the page's LSN footer (page.h).
constexpr uint32_t kOverflowCapacity = kPageLsnOffset - kOverflowHeader;
// Slot payload for an overflow record: tag + total_len + first_page.
constexpr uint32_t kOverflowStubSize = 1 + 8 + 4;
// Cap on the up-front buffer for a reassembled record whose chain is not
// yet checked: a corrupt total length must fail as Corruption, not as a
// huge allocation.
constexpr uint64_t kMaxReserve = 1u << 24;

uint32_t LoadU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
void StoreU32(uint8_t* p, uint32_t v) { std::memcpy(p, &v, 4); }
uint64_t LoadU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}
}  // namespace

TableHeap::TableHeap(StorageEngine* engine, PageId first_page)
    : engine_(engine), first_page_(first_page), last_page_hint_(first_page) {}

Result<PageId> TableHeap::Create(StorageEngine* engine) {
  JAGUAR_ASSIGN_OR_RETURN(PageId id, engine->AllocatePage());
  // The page may have been the first page of a dropped heap.
  engine->DropHeapDirectory(id);
  JAGUAR_ASSIGN_OR_RETURN(PageGuard page, engine->buffer_pool()->FetchPage(id));
  WalPageEdit edit(engine->wal(), &page);
  SlottedPage sp(page.data());
  sp.Init();
  JAGUAR_RETURN_IF_ERROR(edit.Commit());
  return id;
}

Result<RecordId> TableHeap::Insert(Slice record) {
  // Decide inline vs overflow. Inline records need 1 tag byte of headroom.
  const bool overflow = record.size() + 1 > SlottedPage::MaxRecordSize();

  BufferWriter stub;
  if (overflow) {
    JAGUAR_ASSIGN_OR_RETURN(PageId first, WriteOverflow(record));
    stub.PutU8(kOverflowTag);
    stub.PutU64(record.size());
    stub.PutU32(first);
  } else {
    stub.PutU8(kInlineTag);
    stub.PutBytes(record);
  }
  Slice payload = stub.AsSlice();
  StorageEngine::HeapDirectoryHandle dir =
      engine_->LockHeapDirectory(first_page_);
  Result<RecordId> rid = Append(dir.get(), payload);
  // A failed edit may leave the chain out of step with the directory.
  if (!rid.ok()) dir->Clear();
  return rid;
}

Status TableHeap::BuildDirectory(HeapDirectory* dir) {
  if (dir->built) return Status::OK();
  HeapDirectory fresh;
  for (PageId pid = first_page_; pid != kInvalidPageId;) {
    if (fresh.Find(pid) != HeapDirectory::kNone) {
      return Corruption("page chain cycle");
    }
    JAGUAR_ASSIGN_OR_RETURN(PageGuard page,
                            engine_->buffer_pool()->FetchPage(pid));
    SlottedPage sp(page.data());
    fresh.Append(pid, sp.Room());
    pid = sp.next_page_id();
  }
  fresh.built = true;
  *dir = std::move(fresh);
  return Status::OK();
}

Result<RecordId> TableHeap::Append(HeapDirectory* dir, Slice payload) {
  JAGUAR_RETURN_IF_ERROR(BuildDirectory(dir));
  const uint32_t size = static_cast<uint32_t>(payload.size());
  // Take the page a walk of the chain from the hint would stop at: the
  // first whose room admits the record. The payload never exceeds
  // MaxRecordSize (larger records went to overflow pages above), so a
  // fresh page always has room for it.
  const size_t start = dir->Find(last_page_hint_);
  if (start == HeapDirectory::kNone) {
    return Internal("append hint is not a chain page");
  }
  const size_t pos = dir->FirstFit(start, size);
  // The record carrying the new tuple is the *last* one the statement logs
  // (chain links and page formats precede it), so a replay that stops early
  // yields a well-formed heap without the tuple — never a torn tuple.
  if (pos == dir->pages.size()) {
    JAGUAR_ASSIGN_OR_RETURN(PageGuard tail, engine_->buffer_pool()->FetchPage(
                                                dir->pages.back()));
    SlottedPage tail_sp(tail.data());
    if (tail_sp.next_page_id() != kInvalidPageId) {
      return Internal("heap directory does not end at the chain's tail");
    }
    JAGUAR_ASSIGN_OR_RETURN(PageId fresh, engine_->AllocatePage());
    int32_t fresh_room;
    {
      JAGUAR_ASSIGN_OR_RETURN(PageGuard fresh_page,
                              engine_->buffer_pool()->FetchPage(fresh));
      WalPageEdit fresh_edit(engine_->wal(), &fresh_page);
      SlottedPage fresh_sp(fresh_page.data());
      fresh_sp.Init();
      JAGUAR_RETURN_IF_ERROR(fresh_edit.Commit());
      fresh_room = fresh_sp.Room();
    }
    WalPageEdit link(engine_->wal(), &tail);
    tail_sp.set_next_page_id(fresh);
    JAGUAR_RETURN_IF_ERROR(link.Commit());
    dir->Append(fresh, fresh_room);
  }
  const PageId pid = dir->pages[pos];
  JAGUAR_ASSIGN_OR_RETURN(PageGuard page,
                          engine_->buffer_pool()->FetchPage(pid));
  SlottedPage sp(page.data());
  if (!sp.Fits(size)) {
    return Internal(StringPrintf("heap directory out of step with page %u",
                                 pid));
  }
  WalPageEdit edit(engine_->wal(), &page);
  // Insert refuses only what Fits refuses, before touching the page.
  JAGUAR_ASSIGN_OR_RETURN(uint16_t slot, sp.Insert(payload));
  JAGUAR_RETURN_IF_ERROR(edit.Commit());
  dir->room[pos] = sp.Room();
  last_page_hint_ = pid;
  return RecordId{pid, slot};
}

Result<PageId> TableHeap::WriteOverflow(Slice payload) {
  PageId first = kInvalidPageId;
  PageId prev = kInvalidPageId;
  size_t off = 0;
  while (off < payload.size()) {
    size_t chunk = std::min<size_t>(kOverflowCapacity, payload.size() - off);
    JAGUAR_ASSIGN_OR_RETURN(PageId pid, engine_->AllocatePage());
    {
      JAGUAR_ASSIGN_OR_RETURN(PageGuard page,
                              engine_->buffer_pool()->FetchPage(pid));
      WalPageEdit edit(engine_->wal(), &page);
      StoreU32(page.data(), kInvalidPageId);
      StoreU32(page.data() + 4, static_cast<uint32_t>(chunk));
      std::memcpy(page.data() + kOverflowHeader, payload.data() + off, chunk);
      JAGUAR_RETURN_IF_ERROR(edit.Commit());
    }
    if (prev != kInvalidPageId) {
      JAGUAR_ASSIGN_OR_RETURN(PageGuard prev_page,
                              engine_->buffer_pool()->FetchPage(prev));
      WalPageEdit edit(engine_->wal(), &prev_page);
      StoreU32(prev_page.data(), pid);
      JAGUAR_RETURN_IF_ERROR(edit.Commit());
    } else {
      first = pid;
    }
    prev = pid;
    off += chunk;
  }
  if (first == kInvalidPageId) {
    // Zero-length payloads still get one (empty) overflow page so the stub
    // has a valid chain to point at.
    JAGUAR_ASSIGN_OR_RETURN(first, engine_->AllocatePage());
    JAGUAR_ASSIGN_OR_RETURN(PageGuard page,
                            engine_->buffer_pool()->FetchPage(first));
    WalPageEdit edit(engine_->wal(), &page);
    StoreU32(page.data(), kInvalidPageId);
    StoreU32(page.data() + 4, 0);
    JAGUAR_RETURN_IF_ERROR(edit.Commit());
  }
  return first;
}

Status TableHeap::WalkOverflow(PageId page, uint64_t seen, uint64_t total_len,
                               std::vector<uint8_t>* out) {
  while (page != kInvalidPageId) {
    JAGUAR_ASSIGN_OR_RETURN(PageGuard guard,
                            engine_->buffer_pool()->FetchPage(page));
    const uint8_t* data = guard.data();
    uint32_t chunk = LoadU32(data + 4);
    if (chunk > kOverflowCapacity) return Corruption("bad overflow chunk size");
    seen += chunk;
    if (seen > total_len) return Corruption("overflow chain too long");
    if (out != nullptr) {
      out->insert(out->end(), data + kOverflowHeader,
                  data + kOverflowHeader + chunk);
    }
    page = LoadU32(data);
  }
  if (seen != total_len) return Corruption("overflow chain truncated");
  return Status::OK();
}

Status TableHeap::FreeOverflow(PageId first) {
  PageId pid = first;
  while (pid != kInvalidPageId) {
    PageId next;
    {
      JAGUAR_ASSIGN_OR_RETURN(PageGuard page,
                              engine_->buffer_pool()->FetchPage(pid));
      next = LoadU32(page.data());
    }
    JAGUAR_RETURN_IF_ERROR(engine_->FreePage(pid));
    pid = next;
  }
  return Status::OK();
}

Status TableHeap::Delete(RecordId rid) {
  PageId overflow_first = kInvalidPageId;
  {
    StorageEngine::HeapDirectoryHandle dir =
        engine_->LockHeapDirectory(first_page_);
    const size_t pos = dir->Find(rid.page_id);
    if (dir->built && pos == HeapDirectory::kNone) {
      return NotFound("record id names no page of this heap");
    }
    Result<int32_t> room = [&]() -> Result<int32_t> {
      JAGUAR_ASSIGN_OR_RETURN(PageGuard page,
                              engine_->buffer_pool()->FetchPage(rid.page_id));
      WalPageEdit edit(engine_->wal(), &page);
      SlottedPage sp(page.data());
      JAGUAR_ASSIGN_OR_RETURN(Slice payload, sp.Get(rid.slot));
      if (!payload.empty() && payload[0] == kOverflowTag &&
          payload.size() == kOverflowStubSize) {
        overflow_first = LoadU32(payload.data() + 9);
      }
      JAGUAR_RETURN_IF_ERROR(sp.Delete(rid.slot));
      JAGUAR_RETURN_IF_ERROR(edit.Commit());
      return sp.Room();
    }();
    if (!room.ok()) {
      dir->Clear();
      return room.status();
    }
    if (dir->built) dir->room[pos] = *room;
  }
  if (overflow_first != kInvalidPageId) {
    JAGUAR_RETURN_IF_ERROR(FreeOverflow(overflow_first));
  }
  return Status::OK();
}

Status TableHeap::DropAll() {
  engine_->DropHeapDirectory(first_page_);
  PageId pid = first_page_;
  while (pid != kInvalidPageId) {
    PageId next;
    std::vector<PageId> overflows;
    {
      JAGUAR_ASSIGN_OR_RETURN(PageGuard page,
                              engine_->buffer_pool()->FetchPage(pid));
      SlottedPage sp(page.data());
      next = sp.next_page_id();
      for (uint16_t s = 0; s < sp.num_slots(); ++s) {
        Result<Slice> payload = sp.Get(s);
        if (!payload.ok()) continue;
        if (!payload->empty() && (*payload)[0] == kOverflowTag &&
            payload->size() == kOverflowStubSize) {
          overflows.push_back(LoadU32(payload->data() + 9));
        }
      }
    }
    for (PageId of : overflows) {
      JAGUAR_RETURN_IF_ERROR(FreeOverflow(of));
    }
    JAGUAR_RETURN_IF_ERROR(engine_->FreePage(pid));
    pid = next;
  }
  first_page_ = kInvalidPageId;
  return Status::OK();
}

Result<uint64_t> TableHeap::CountRecords() {
  uint64_t n = 0;
  Iterator it = Scan();
  while (true) {
    JAGUAR_ASSIGN_OR_RETURN(const Iterator::RecordView* rec, it.Advance());
    if (rec == nullptr) break;
    ++n;
  }
  return n;
}

Result<const TableHeap::Iterator::RecordView*> TableHeap::Iterator::Advance(
    bool reassemble) {
  chunk_guard_.Release();  // leaving the previous record
  if (rids_ != nullptr) return AdvanceListed(reassemble);
  BufferPool* pool = heap_->engine_->buffer_pool();
  while (page_ != kInvalidPageId) {
    if (!page_guard_.valid()) {
      JAGUAR_ASSIGN_OR_RETURN(page_guard_, pool->FetchPage(page_));
      // Entering a fresh chain page: hint the pool about the pages after it
      // so a sequential scan overlaps its reads with record processing. A
      // page list is known up front, so hint its next readahead-depth pages
      // directly instead of walking chain links.
      if (pages_ == nullptr) {
        pool->Prefetch(SlottedPage(page_guard_.data()).next_page_id());
      } else {
        const size_t hint_end =
            std::min(end_, pos_ + 1 + pool->readahead_depth());
        if (pos_ + 1 < hint_end) {
          pool->Prefetch(pages_ + pos_ + 1, hint_end - pos_ - 1);
        }
      }
    }
    SlottedPage sp(page_guard_.data());
    while (slot_ < sp.num_slots()) {
      const uint16_t s = slot_++;
      Result<Slice> payload = sp.Get(s);
      if (!payload.ok()) continue;  // tombstone
      JAGUAR_RETURN_IF_ERROR(
          ReadRecord(RecordId{page_, s}, *payload, reassemble));
      return &view_;
    }
    if (pages_ == nullptr) {
      page_ = sp.next_page_id();
    } else {
      page_ = ++pos_ < end_ ? pages_[pos_] : kInvalidPageId;
    }
    slot_ = 0;
    page_guard_.Release();
  }
  return nullptr;
}

Result<const TableHeap::Iterator::RecordView*>
TableHeap::Iterator::AdvanceListed(bool reassemble) {
  if (pos_ >= end_) {
    page_guard_.Release();
    return nullptr;
  }
  const RecordId rid = rids_[pos_++];
  // A run of records on one page shares its pin.
  if (!page_guard_.valid() || page_ != rid.page_id) {
    page_guard_.Release();
    page_ = rid.page_id;
    JAGUAR_ASSIGN_OR_RETURN(page_guard_,
                            heap_->engine_->buffer_pool()->FetchPage(page_));
  }
  Result<Slice> payload = SlottedPage(page_guard_.data()).Get(rid.slot);
  if (!payload.ok()) {
    // Whoever listed the record (an index) disagrees with the heap.
    return Corruption(StringPrintf("listed record (%u, %u) is not live",
                                   rid.page_id, rid.slot));
  }
  JAGUAR_RETURN_IF_ERROR(ReadRecord(rid, *payload, reassemble));
  return &view_;
}

Status TableHeap::Iterator::ReadRecord(RecordId rid, Slice payload,
                                       bool reassemble) {
  view_.rid = rid;
  view_.whole = true;
  if (payload.empty()) return Corruption("empty record payload");
  if (payload[0] == kInlineTag) {
    view_.bytes = payload.SubSlice(1, payload.size() - 1);
    return Status::OK();
  }
  if (payload[0] != kOverflowTag || payload.size() != kOverflowStubSize) {
    return Corruption("bad record tag");
  }
  total_len_ = LoadU64(payload.data() + 1);
  const PageId first = LoadU32(payload.data() + 9);
  if (reassemble) {
    assembled_.clear();
    assembled_.reserve(std::min<uint64_t>(total_len_, kMaxReserve));
    JAGUAR_RETURN_IF_ERROR(
        heap_->WalkOverflow(first, 0, total_len_, &assembled_));
    view_.bytes = Slice(assembled_);
    return Status::OK();
  }
  // Prefix view: pin the first chunk in place, then walk the rest of the
  // chain for its checks only.
  JAGUAR_ASSIGN_OR_RETURN(chunk_guard_,
                          heap_->engine_->buffer_pool()->FetchPage(first));
  const uint8_t* data = chunk_guard_.data();
  const uint32_t chunk = LoadU32(data + 4);
  if (chunk > kOverflowCapacity) return Corruption("bad overflow chunk size");
  if (chunk > total_len_) return Corruption("overflow chain too long");
  rest_ = LoadU32(data);
  JAGUAR_RETURN_IF_ERROR(heap_->WalkOverflow(rest_, chunk, total_len_, nullptr));
  view_.bytes = Slice(data + kOverflowHeader, chunk);
  view_.whole = chunk == total_len_;
  return Status::OK();
}

Result<Slice> TableHeap::Iterator::Whole() {
  if (view_.whole) return view_.bytes;
  // The chain was checked when the cursor arrived, so total_len_ is sound.
  assembled_.clear();
  assembled_.reserve(total_len_);
  assembled_.insert(assembled_.end(), view_.bytes.data(),
                    view_.bytes.data() + view_.bytes.size());
  JAGUAR_RETURN_IF_ERROR(heap_->WalkOverflow(rest_, view_.bytes.size(),
                                             total_len_, &assembled_));
  chunk_guard_.Release();
  view_.bytes = Slice(assembled_);
  view_.whole = true;
  return view_.bytes;
}

Result<std::optional<std::pair<RecordId, std::vector<uint8_t>>>>
TableHeap::Iterator::Next() {
  JAGUAR_ASSIGN_OR_RETURN(const RecordView* rec, Advance(/*reassemble=*/true));
  if (rec == nullptr) {
    return std::optional<std::pair<RecordId, std::vector<uint8_t>>>();
  }
  // A reassembled record already sits in the cursor's buffer: hand it over.
  std::vector<uint8_t> bytes = rec->bytes.data() == assembled_.data()
                                   ? std::move(assembled_)
                                   : rec->bytes.ToVector();
  view_.bytes = Slice();
  return std::make_optional(std::make_pair(view_.rid, std::move(bytes)));
}

Result<std::vector<PageId>> TableHeap::ListPages() {
  StorageEngine::HeapDirectoryHandle dir =
      engine_->LockHeapDirectory(first_page_);
  JAGUAR_RETURN_IF_ERROR(BuildDirectory(dir.get()));
  return dir->pages;
}

Status TableHeap::OrderByChain(std::vector<RecordId>* rids) {
  std::vector<std::pair<size_t, RecordId>> keyed;
  keyed.reserve(rids->size());
  {
    StorageEngine::HeapDirectoryHandle dir =
        engine_->LockHeapDirectory(first_page_);
    JAGUAR_RETURN_IF_ERROR(BuildDirectory(dir.get()));
    for (const RecordId& rid : *rids) {
      const size_t pos = dir->Find(rid.page_id);
      if (pos == HeapDirectory::kNone) {
        return Corruption(StringPrintf(
            "listed record (%u, %u) names no page of this heap", rid.page_id,
            rid.slot));
      }
      keyed.emplace_back(pos, rid);
    }
  }
  std::sort(keyed.begin(), keyed.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first < b.first
                              : a.second.slot < b.second.slot;
  });
  for (size_t i = 0; i < keyed.size(); ++i) (*rids)[i] = keyed[i].second;
  return Status::OK();
}

}  // namespace jaguar
