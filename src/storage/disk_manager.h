#ifndef JAGUAR_STORAGE_DISK_MANAGER_H_
#define JAGUAR_STORAGE_DISK_MANAGER_H_

/// \file disk_manager.h
/// Raw page-granularity file I/O. One database == one file; pages are
/// addressed by index. Allocation policy (free lists) lives a layer up in
/// `StorageEngine`; the disk manager only extends the file and moves bytes.
///
/// Thread safety: reads and writes of distinct (or even the same) pages may
/// run concurrently — they are single pread/pwrite calls. Allocation
/// (`AllocatePage`/`EnsureSize`) is serialized internally so concurrent
/// buffer-pool callers can extend the file safely.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "common/status.h"
#include "storage/page.h"
#include "wal/log_manager.h"

namespace jaguar {

/// Implements `wal::PageDevice` so the recovery redo pass can patch pages
/// directly, bypassing the buffer pool (which does not exist yet at recovery
/// time).
class DiskManager : public wal::PageDevice {
 public:
  DiskManager() = default;
  ~DiskManager() override;

  DiskManager(const DiskManager&) = delete;
  DiskManager& operator=(const DiskManager&) = delete;

  /// Opens (creating if necessary) the database file at `path`.
  Status Open(const std::string& path);
  /// Flushes and closes the file. Idempotent.
  Status Close();
  bool is_open() const { return fd_ >= 0; }

  /// Number of pages currently in the file.
  uint32_t num_pages() const override {
    return num_pages_.load(std::memory_order_acquire);
  }

  /// Reads page `id` into `out` (which must hold kPageSize bytes).
  Status ReadPage(PageId id, uint8_t* out) override;
  /// Writes kPageSize bytes from `data` to page `id`. The page must already
  /// be allocated (id < num_pages()).
  Status WritePage(PageId id, const uint8_t* data) override;

  /// Extends the file by one zeroed page and returns its id.
  Result<PageId> AllocatePage();

  /// Grows the file with zeroed pages until it holds `num_pages` pages.
  /// No-op when the file is already at least that large.
  Status EnsureSize(uint32_t num_pages) override;

  /// fsync()s the file.
  Status Sync() override;

  /// Cumulative I/O counters (used by tests and the calibration bench).
  uint64_t reads() const { return reads_.load(std::memory_order_relaxed); }
  uint64_t writes() const { return writes_.load(std::memory_order_relaxed); }

 private:
  /// Extends the file by one zeroed page; caller holds `alloc_mutex_`.
  Result<PageId> AllocatePageLocked();

  int fd_ = -1;
  std::string path_;
  std::mutex alloc_mutex_;
  std::atomic<uint32_t> num_pages_{0};
  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> writes_{0};
};

}  // namespace jaguar

#endif  // JAGUAR_STORAGE_DISK_MANAGER_H_
