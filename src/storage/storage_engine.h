#ifndef JAGUAR_STORAGE_STORAGE_ENGINE_H_
#define JAGUAR_STORAGE_STORAGE_ENGINE_H_

/// \file storage_engine.h
/// Ties the disk manager, write-ahead log and buffer pool together and owns
/// database-level page allocation: a header page (page 0) stores a magic
/// number, the head of the free-page list, and the catalog root. Freed pages
/// are chained through their first four bytes and reused before the file
/// grows.
///
/// Durability: every mutation is logged through `WalPageEdit` before the
/// page can reach disk; `Open` replays the log tail after a crash; and
/// `Checkpoint` bounds replay by flushing everything and truncating the log.
/// See DESIGN.md "Durability & recovery".

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/heap_directory.h"
#include "storage/page.h"
#include "wal/log_manager.h"

namespace jaguar {

class StorageEngine {
 public:
  static constexpr uint32_t kMagic = 0x4A414744;  // "JAGD"
  /// v2 added the per-page LSN footer (page.h), which moved the slotted-page
  /// cell area and overflow chunk capacity; v1 files are not readable.
  static constexpr uint32_t kVersion = 2;

  /// Opens or creates the database file at `path`, with its write-ahead log
  /// beside it at `path` + ".wal". Replays the log if the previous process
  /// crashed, then checkpoints so the engine starts from a clean log.
  /// \param pool_pages buffer pool capacity in pages.
  /// \param pool_config sharding knobs.
  static Result<std::unique_ptr<StorageEngine>> Open(
      const std::string& path, size_t pool_pages = 256,
      const wal::WalOptions& wal_options = wal::WalOptions(),
      const BufferPoolConfig& pool_config = BufferPoolConfig());

  /// Checkpoints (which flushes every dirty page) and closes the data file
  /// and the log.
  Status Close();

  BufferPool* buffer_pool() { return pool_.get(); }
  DiskManager* disk() { return &disk_; }
  /// The write-ahead log; never null once `Open` has succeeded.
  wal::LogManager* wal() { return wal_.get(); }

  /// Allocates a page, preferring the free list over growing the file.
  Result<PageId> AllocatePage();

  /// Returns `id` to the free list. The page must be unpinned.
  Status FreePage(PageId id);

  /// Root page of the serialized system catalog (kInvalidPageId when absent).
  Result<PageId> GetCatalogRoot();
  Status SetCatalogRoot(PageId id);

  /// Number of pages on the free list (walks the chain; test/debug use).
  Result<uint32_t> CountFreePages();

  /// Statement-commit hook: makes the log durable (group commit) and
  /// auto-checkpoints once the log outgrows wal::kCheckpointBytes.
  Status WalCommit();

  /// Full checkpoint: log made durable, all dirty pages flushed, data file
  /// synced, log truncated. Replay after a crash starts from here.
  Status Checkpoint();

  /// What redo did during Open (zeroed when there was nothing to replay).
  const wal::RecoveryStats& recovery_stats() const { return recovery_stats_; }

  /// A heap's directory (heap_directory.h), held locked for the handle's
  /// life. One lock covers every directory, so statements on different
  /// heaps and a morsel planner never see one half-updated; writes to one
  /// heap are serialized by the caller, as its pages' are.
  class HeapDirectoryHandle {
   public:
    HeapDirectory* operator->() const { return dir_; }
    HeapDirectory* get() const { return dir_; }

   private:
    friend class StorageEngine;
    HeapDirectoryHandle(std::unique_lock<std::mutex> lock, HeapDirectory* dir)
        : lock_(std::move(lock)), dir_(dir) {}
    std::unique_lock<std::mutex> lock_;
    HeapDirectory* dir_;
  };

  /// Locks the directory of the heap whose first page is `first_page`,
  /// creating it unbuilt on first use.
  HeapDirectoryHandle LockHeapDirectory(PageId first_page);

  /// Forgets the directory of the heap whose first page is `first_page`.
  /// Must not be called while holding a handle.
  void DropHeapDirectory(PageId first_page);

 private:
  StorageEngine() = default;

  Status InitHeader();
  Result<uint32_t> ReadHeaderField(uint32_t offset);
  Status WriteHeaderField(uint32_t offset, uint32_t value);

  DiskManager disk_;
  // Declared before pool_: ~BufferPool flushes dirty pages, which invokes
  // the WAL rule, so the log must be destroyed after the pool.
  std::unique_ptr<wal::LogManager> wal_;
  std::unique_ptr<BufferPool> pool_;
  wal::RecoveryStats recovery_stats_;
  std::mutex heap_dirs_mu_;
  std::unordered_map<PageId, HeapDirectory> heap_dirs_;
};

}  // namespace jaguar

#endif  // JAGUAR_STORAGE_STORAGE_ENGINE_H_
