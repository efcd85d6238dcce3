#ifndef JAGUAR_STORAGE_BUFFER_POOL_H_
#define JAGUAR_STORAGE_BUFFER_POOL_H_

/// \file buffer_pool.h
/// A sharded, I/O-decoupled page cache with one clock hand (second-chance
/// replacement) over its frames. It starts no thread.
///
/// Callers obtain pages through RAII `PageGuard`s: a guard pins its frame for
/// its lifetime, so forgetting to unpin is impossible by construction. Dirty
/// pages are written back on eviction and on `FlushAll`.
///
/// Layout: pages are partitioned across `N` shards by
/// `page_id & (N - 1)` (N is a power of two, by default
/// `next_pow2(min(16, workers_hint * 2))`). Each shard owns its own latch,
/// page table and in-flight I/O table. Frames themselves float: a frame
/// belongs to whichever shard maps the page it currently holds, and empty
/// frames sit on one global free list, so capacity is shared and a skewed
/// page distribution cannot strand frames in an idle shard.
///
/// Replacement: one clock hand walks the frame array. At each frame it reads
/// the page id, takes that page's shard latch (never two at once), and
/// considers the frame only if the shard still maps the page to it and the
/// frame is unpinned and not being flushed. A set `ref` bit is cleared and
/// buys the frame a second chance; a clear one makes it the victim. Two full
/// turns without a victim mean every frame is pinned: ResourceExhausted. A
/// hit only sets `ref`, and an unpin only drops the pin count.
///
/// I/O happens **off the shard latch**:
///  * A miss registers the page in the shard's in-flight table, drops the
///    latch, reads from disk, then relocks to publish the frame. Concurrent
///    fetchers of the same missing page wait on the shard's condvar instead
///    of issuing duplicate reads (`storage.bufferpool.io_waits`).
///  * Evicting a dirty victim likewise registers the victim page id, drops
///    the latch, and only then runs the WAL-rule fsync (`EnsureDurable`) and
///    the page write. Fetchers of the in-flight victim wait for the write,
///    then re-read from disk. If the write-back fails the victim is
///    re-linked into its shard's page table so the dirty image is never
///    stranded in an unreachable frame.
///
/// `FlushAll` runs one at a time and drains in-flight eviction write-backs
/// before returning, which keeps checkpoint log truncation safe.
///
/// Thread safety: every public entry point is safe for concurrent use. Page
/// *data* is read outside any latch — safe because a pin keeps the frame
/// resident, and parallel execution only runs read-only plans.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "storage/disk_manager.h"
#include "storage/page.h"
#include "wal/log_manager.h"

namespace jaguar {

class BufferPool;

/// Construction-time knobs. `Database::Open` sets `workers_hint` from
/// `DatabaseOptions::num_workers`; benches and tests set the rest.
struct BufferPoolConfig {
  /// Shard count (rounded up to a power of two, clamped to the capacity).
  /// 0 = auto: `next_pow2(min(16, workers_hint * 2))`.
  size_t shards = 0;
  /// Expected number of concurrent fetching threads; drives the auto shard
  /// count.
  size_t workers_hint = 1;
};

/// Pins one page frame for the guard's lifetime. Movable, not copyable.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferPool* pool, size_t frame, PageId id, uint8_t* data)
      : pool_(pool), frame_(frame), id_(id), data_(data) {}
  ~PageGuard() { Release(); }

  PageGuard(PageGuard&& o) noexcept { *this = std::move(o); }
  PageGuard& operator=(PageGuard&& o) noexcept {
    if (this != &o) {
      Release();
      pool_ = o.pool_;
      frame_ = o.frame_;
      id_ = o.id_;
      data_ = o.data_;
      o.pool_ = nullptr;
      o.data_ = nullptr;
    }
    return *this;
  }
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;

  bool valid() const { return data_ != nullptr; }
  PageId id() const { return id_; }
  uint8_t* data() { return data_; }
  const uint8_t* data() const { return data_; }

  /// Marks the page dirty so eviction/flush writes it back.
  void MarkDirty();

  /// Explicit early unpin.
  void Release();

 private:
  BufferPool* pool_ = nullptr;
  size_t frame_ = 0;
  PageId id_ = kInvalidPageId;
  uint8_t* data_ = nullptr;
};

class BufferPool {
 public:
  /// \param disk backing store (must outlive the pool).
  /// \param capacity number of frames.
  /// \param wal when non-null, the pool enforces the WAL rule: before a
  ///        dirty page is written back (eviction or FlushAll), the log is
  ///        made durable up to that page's footer LSN.
  ///        Must outlive the pool.
  BufferPool(DiskManager* disk, size_t capacity,
             wal::LogManager* wal = nullptr,
             const BufferPoolConfig& config = BufferPoolConfig());
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pins page `id`, reading it from disk on miss. Concurrent fetches of the
  /// same missing page coalesce into one disk read.
  Result<PageGuard> FetchPage(PageId id);

  /// Allocates a fresh page on disk and pins it (contents zeroed). The file
  /// grows only once a frame is in hand, so a refused call leaves it as it
  /// was.
  Result<PageGuard> NewPage();

  /// Writes back all dirty pages (pinned ones included), drains in-flight
  /// write-backs, and syncs. On return every prior mutation is in the data
  /// file, which is what makes WAL truncation after a checkpoint safe.
  /// The writes run off the shard latches (frames are marked kWriting), so
  /// concurrent fetches of other pages are not stalled behind the flush
  /// scan. Pinned pages must not be concurrently mutated while a flush is in
  /// flight — checkpoints run from the write path's thread, which
  /// guarantees that today.
  Status FlushAll();

  /// Drops page `id` from the cache without writing it back. The page must
  /// be unpinned. Used when a page is freed.
  Status Discard(PageId id);

  size_t capacity() const { return capacity_; }
  size_t num_shards() const { return shards_count_; }

  // Relaxed-atomic statistics: reading them never touches a shard latch.
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  /// Occupied frames reclaimed to satisfy a fetch/new-page request.
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  /// Fetches that waited for an in-flight read or write-back of their page.
  uint64_t io_waits() const {
    return io_waits_.load(std::memory_order_relaxed);
  }
  /// Shard-latch acquisitions that found the latch already held.
  uint64_t shard_conflicts() const {
    return shard_conflicts_.load(std::memory_order_relaxed);
  }
  /// Number of currently pinned frames (for leak tests).
  size_t pinned_frames() const;

 private:
  friend class PageGuard;

  enum class FrameState : uint8_t {
    kIdle,
    /// FlushAll write-back in flight: the frame stays in its page table but
    /// fetch hits wait until the disk write completes, so the image being
    /// written is never concurrently mutated.
    kWriting,
  };

  struct Frame {
    /// Written under the owning shard's latch. Atomic so the clock hand can
    /// read it before it knows which latch to take; the hand then trusts
    /// only that shard's page table.
    std::atomic<PageId> id{kInvalidPageId};
    /// Atomic only so `pinned_frames()` can read it latch-free; all
    /// transitions happen under the owning shard's latch.
    std::atomic<int> pin_count{0};
    bool dirty = false;
    bool ref = false;  ///< clock second-chance bit
    FrameState state = FrameState::kIdle;
    std::unique_ptr<uint8_t[]> data;
  };

  struct Shard {
    std::mutex latch;
    /// Wakes waiters on the in-flight I/O table and FlushAll's write drain.
    std::condition_variable cv;
    std::unordered_map<PageId, size_t> table;  // page id -> frame index
    /// Pages with a disk read or write-back in flight; fetchers wait on cv.
    std::unordered_set<PageId> io;
    /// Eviction write-backs in flight for pages already removed from
    /// `table`; FlushAll drains these before declaring the shard clean.
    size_t inflight_writes = 0;
  };

  Shard& ShardOf(PageId id) { return shards_[id & shard_mask_]; }
  const Shard& ShardOf(PageId id) const { return shards_[id & shard_mask_]; }

  /// Locks a shard, counting contended acquisitions.
  std::unique_lock<std::mutex> LockShard(Shard& s);

  /// Bumps io_waits_; FetchPage calls it once per fetch that waited.
  void CountIoWait();

  void Unpin(size_t frame, PageId id);
  void MarkFrameDirty(size_t frame, PageId id);

  /// Returns an empty frame: the global free list first, then the clock
  /// hand. Must be called WITHOUT any shard latch held. ResourceExhausted
  /// when two full turns of the hand find no victim; any other error is a
  /// failed dirty write-back.
  Result<size_t> AcquireFrame();
  /// The hand's step at `frame`: clears a set `ref` bit, or evicts an
  /// unpinned idle frame whose bit is clear. True when the frame is now
  /// empty and the caller's.
  Result<bool> TryEvict(size_t frame);
  void ReturnFreeFrame(size_t frame);

  /// WAL rule + disk write of one frame's image; runs off the shard latch.
  /// The caller must hold the image exclusively (victim out of the table or
  /// frame marked kWriting) and clears the dirty bit itself, under the
  /// latch, once the write succeeds.
  Status WriteBackFrame(Frame& frame);

  DiskManager* disk_;
  wal::LogManager* wal_;
  size_t capacity_;
  size_t shards_count_ = 1;
  size_t shard_mask_ = 0;

  std::unique_ptr<Frame[]> frames_;
  std::unique_ptr<Shard[]> shards_;

  std::mutex free_mutex_;
  std::vector<size_t> free_frames_;

  /// The clock hand: the next frame to consider is `hand_ % capacity_`.
  std::atomic<size_t> hand_{0};

  /// Serializes FlushAll calls: a flush never observes another flush's
  /// half-finished kWriting frames, so a checkpoint cannot truncate the log
  /// under a write-back still in flight.
  std::mutex flush_mutex_;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> io_waits_{0};
  std::atomic<uint64_t> shard_conflicts_{0};
};

}  // namespace jaguar

#endif  // JAGUAR_STORAGE_BUFFER_POOL_H_
