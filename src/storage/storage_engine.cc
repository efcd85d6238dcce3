#include "storage/storage_engine.h"

#include <cstring>

#include "common/string_util.h"
#include "storage/page_edit.h"
#include "wal/crash_point.h"

namespace jaguar {

namespace {
// Header page field offsets (all u32, little endian).
constexpr uint32_t kOffMagic = 0;
constexpr uint32_t kOffVersion = 4;
constexpr uint32_t kOffFreeListHead = 8;
constexpr uint32_t kOffCatalogRoot = 12;

uint32_t LoadU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
void StoreU32(uint8_t* p, uint32_t v) { std::memcpy(p, &v, 4); }
}  // namespace

Result<std::unique_ptr<StorageEngine>> StorageEngine::Open(
    const std::string& path, size_t pool_pages,
    const wal::WalOptions& wal_options, const BufferPoolConfig& pool_config) {
  auto engine = std::unique_ptr<StorageEngine>(new StorageEngine());
  JAGUAR_RETURN_IF_ERROR(engine->disk_.Open(path));

  if (wal_options.enabled) {
    engine->wal_ = std::make_unique<wal::LogManager>(wal_options);
    JAGUAR_RETURN_IF_ERROR(engine->wal_->Open(path + ".wal"));
    if (engine->disk_.num_pages() == 0) {
      // Brand-new data file. Any log content is a stale leftover (the data
      // file was removed, its log was not) — reset rather than replay it
      // into the fresh file.
      JAGUAR_RETURN_IF_ERROR(engine->wal_->Checkpoint(0));
    } else {
      // Redo pass. Writes through the raw disk manager (no pool exists yet),
      // so the pool below starts from fully recovered pages.
      JAGUAR_RETURN_IF_ERROR(
          engine->wal_->Recover(&engine->disk_, &engine->recovery_stats_));
    }
  }

  engine->pool_ = std::make_unique<BufferPool>(
      &engine->disk_, pool_pages, engine->wal_.get(), pool_config);
  if (engine->disk_.num_pages() == 0) {
    JAGUAR_RETURN_IF_ERROR(engine->InitHeader());
  } else {
    JAGUAR_ASSIGN_OR_RETURN(uint32_t magic, engine->ReadHeaderField(kOffMagic));
    if (magic != kMagic) {
      return Corruption("not a jaguar database file: " + path);
    }
    JAGUAR_ASSIGN_OR_RETURN(uint32_t version,
                            engine->ReadHeaderField(kOffVersion));
    if (version != kVersion) {
      return NotSupported(StringPrintf("database version %u (want %u)",
                                       version, kVersion));
    }
  }
  if (engine->wal_ != nullptr) {
    // Start from a clean slate: everything recovered (or freshly
    // initialized) goes to disk and the log truncates, so the next crash
    // only replays from here.
    JAGUAR_RETURN_IF_ERROR(engine->Checkpoint());
  }
  return engine;
}

Status StorageEngine::InitHeader() {
  JAGUAR_ASSIGN_OR_RETURN(PageGuard page, pool_->NewPage());
  if (page.id() != 0) return Internal("header page is not page 0");
  if (wal_ != nullptr) {
    wal::WalRecord rec;
    rec.type = wal::WalRecordType::kPageAlloc;
    rec.page_id = page.id();
    JAGUAR_RETURN_IF_ERROR(wal_->Append(std::move(rec)).status());
  }
  WalPageEdit edit(wal_.get(), &page);
  StoreU32(page.data() + kOffMagic, kMagic);
  StoreU32(page.data() + kOffVersion, kVersion);
  StoreU32(page.data() + kOffFreeListHead, kInvalidPageId);
  StoreU32(page.data() + kOffCatalogRoot, kInvalidPageId);
  return edit.Commit();
}

Result<uint32_t> StorageEngine::ReadHeaderField(uint32_t offset) {
  JAGUAR_ASSIGN_OR_RETURN(PageGuard page, pool_->FetchPage(0));
  return LoadU32(page.data() + offset);
}

Status StorageEngine::WriteHeaderField(uint32_t offset, uint32_t value) {
  JAGUAR_ASSIGN_OR_RETURN(PageGuard page, pool_->FetchPage(0));
  WalPageEdit edit(wal_.get(), &page);
  StoreU32(page.data() + offset, value);
  return edit.Commit();
}

Result<PageId> StorageEngine::AllocatePage() {
  JAGUAR_ASSIGN_OR_RETURN(uint32_t head, ReadHeaderField(kOffFreeListHead));
  if (head == kInvalidPageId) {
    JAGUAR_ASSIGN_OR_RETURN(PageGuard page, pool_->NewPage());
    if (wal_ != nullptr) {
      // The fresh page is all zeros (LSN 0); only the file growth needs a
      // record, so replay can re-extend a shorter file.
      wal::WalRecord rec;
      rec.type = wal::WalRecordType::kPageAlloc;
      rec.page_id = page.id();
      JAGUAR_RETURN_IF_ERROR(wal_->Append(std::move(rec)).status());
    }
    return page.id();
  }
  // Pop the free list: the first 4 bytes of a free page hold the next link.
  // The header is updated *before* the popped page is scrubbed: if replay
  // stops between the two records, the page is merely leaked. The reverse
  // order would leave a zeroed page at the head of the free list, and the
  // next pop would follow its bogus "next" link of 0.
  PageId next;
  {
    JAGUAR_ASSIGN_OR_RETURN(PageGuard page, pool_->FetchPage(head));
    next = LoadU32(page.data());
  }
  JAGUAR_RETURN_IF_ERROR(WriteHeaderField(kOffFreeListHead, next));
  {
    JAGUAR_ASSIGN_OR_RETURN(PageGuard page, pool_->FetchPage(head));
    WalPageEdit edit(wal_.get(), &page);
    std::memset(page.data(), 0, kPageLsnOffset);
    JAGUAR_RETURN_IF_ERROR(edit.Commit());
  }
  return head;
}

Status StorageEngine::FreePage(PageId id) {
  if (id == 0 || id == kInvalidPageId || id >= disk_.num_pages()) {
    return InvalidArgument(StringPrintf("cannot free page %u", id));
  }
  JAGUAR_ASSIGN_OR_RETURN(uint32_t head, ReadHeaderField(kOffFreeListHead));
  {
    JAGUAR_ASSIGN_OR_RETURN(PageGuard page, pool_->FetchPage(id));
    WalPageEdit edit(wal_.get(), &page);
    std::memset(page.data(), 0, kPageLsnOffset);
    StoreU32(page.data(), head);
    JAGUAR_RETURN_IF_ERROR(edit.Commit());
  }
  if (wal_ != nullptr) {
    wal::WalRecord rec;
    rec.type = wal::WalRecordType::kPageFree;
    rec.page_id = id;
    JAGUAR_RETURN_IF_ERROR(wal_->Append(std::move(rec)).status());
  }
  // Crash here and replay sees the page linked to the old head but not yet
  // installed as head — an unreferenced page, i.e. a leak, not corruption.
  JAGUAR_CRASH_POINT("storage.after_page_write_before_header");
  return WriteHeaderField(kOffFreeListHead, id);
}

Result<PageId> StorageEngine::GetCatalogRoot() {
  return ReadHeaderField(kOffCatalogRoot);
}

Status StorageEngine::SetCatalogRoot(PageId id) {
  JAGUAR_RETURN_IF_ERROR(WriteHeaderField(kOffCatalogRoot, id));
  if (wal_ != nullptr) {
    // Marker record for log tooling; the physical root update was logged by
    // WriteHeaderField above.
    wal::WalRecord rec;
    rec.type = wal::WalRecordType::kCatalogRoot;
    rec.page_id = 0;
    rec.aux = id;
    JAGUAR_RETURN_IF_ERROR(wal_->Append(std::move(rec)).status());
  }
  return Status::OK();
}

Result<uint32_t> StorageEngine::CountFreePages() {
  JAGUAR_ASSIGN_OR_RETURN(uint32_t head, ReadHeaderField(kOffFreeListHead));
  uint32_t n = 0;
  while (head != kInvalidPageId) {
    if (++n > disk_.num_pages()) return Corruption("free list cycle");
    JAGUAR_ASSIGN_OR_RETURN(PageGuard page, pool_->FetchPage(head));
    head = LoadU32(page.data());
  }
  return n;
}

StorageEngine::HeapDirectoryHandle StorageEngine::LockHeapDirectory(
    PageId first_page) {
  std::unique_lock<std::mutex> lock(heap_dirs_mu_);
  HeapDirectory* dir = &heap_dirs_[first_page];
  return HeapDirectoryHandle(std::move(lock), dir);
}

void StorageEngine::DropHeapDirectory(PageId first_page) {
  std::lock_guard<std::mutex> lock(heap_dirs_mu_);
  heap_dirs_.erase(first_page);
}

Status StorageEngine::WalCommit() {
  if (wal_ == nullptr) return Status::OK();
  JAGUAR_RETURN_IF_ERROR(wal_->Commit());
  if (wal_->LogBytes() >= wal_->options().checkpoint_bytes) {
    return Checkpoint();
  }
  return Status::OK();
}

Status StorageEngine::Checkpoint() {
  if (wal_ == nullptr) return pool_->FlushAll();
  // FlushAll enforces the WAL rule per page (log durable up to each page's
  // LSN) and fsyncs the data file; only then is it safe to truncate the log.
  JAGUAR_RETURN_IF_ERROR(pool_->FlushAll());
  JAGUAR_CRASH_POINT("wal.mid_checkpoint");
  return wal_->Checkpoint(disk_.num_pages());
}

Status StorageEngine::Close() {
  if (pool_ != nullptr) {
    JAGUAR_RETURN_IF_ERROR(Checkpoint());
  }
  if (wal_ != nullptr) {
    JAGUAR_RETURN_IF_ERROR(wal_->Close());
  }
  return disk_.Close();
}

}  // namespace jaguar
