#include "storage/buffer_pool.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/metrics.h"

namespace jaguar {

namespace {

obs::Counter* PoolCounter(const char* which) {
  return obs::MetricsRegistry::Global()->GetCounter(
      std::string("storage.bufferpool.") + which);
}

size_t NextPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

void PageGuard::MarkDirty() {
  if (pool_ != nullptr) pool_->MarkFrameDirty(frame_, id_);
}

void PageGuard::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_, id_);
    pool_ = nullptr;
    data_ = nullptr;
  }
}

BufferPool::BufferPool(DiskManager* disk, size_t capacity,
                       wal::LogManager* wal, const BufferPoolConfig& config)
    : disk_(disk), wal_(wal), capacity_(capacity) {
  JAGUAR_CHECK(capacity > 0);
  size_t want = config.shards != 0
                    ? config.shards
                    : std::min<size_t>(
                          16, std::max<size_t>(1, config.workers_hint) * 2);
  shards_count_ = NextPow2(want);
  // More shards than frames would let a tiny pool strand capacity behind
  // shard-local bookkeeping; tests run pools as small as two frames.
  while (shards_count_ > 1 && shards_count_ > capacity) shards_count_ /= 2;
  shard_mask_ = shards_count_ - 1;

  frames_ = std::make_unique<Frame[]>(capacity);
  shards_ = std::make_unique<Shard[]>(shards_count_);
  free_frames_.reserve(capacity);
  for (size_t i = 0; i < capacity; ++i) {
    frames_[i].data = std::make_unique<uint8_t[]>(kPageSize);
    free_frames_.push_back(capacity - 1 - i);
  }
}

BufferPool::~BufferPool() {
  Status s = FlushAll();
  if (!s.ok()) {
    JAGUAR_LOG(kWarning) << "buffer pool shutdown flush failed, dirty pages "
                            "may be lost: "
                         << s.ToString();
  }
}

void BufferPool::CountIoWait() {
  io_waits_.fetch_add(1, std::memory_order_relaxed);
  static obs::Counter* waits = PoolCounter("io_waits");
  waits->Add();
}

std::unique_lock<std::mutex> BufferPool::LockShard(Shard& s) {
  std::unique_lock<std::mutex> lk(s.latch, std::try_to_lock);
  if (!lk.owns_lock()) {
    shard_conflicts_.fetch_add(1, std::memory_order_relaxed);
    static obs::Counter* conflicts = PoolCounter("shard_conflicts");
    conflicts->Add();
    lk.lock();
  }
  return lk;
}

Status BufferPool::WriteBackFrame(Frame& frame) {
  if (wal_ != nullptr) {
    // WAL rule: the record that produced this page image must be durable
    // before the image can reach the data file. Runs without any shard
    // latch held; LogManager::EnsureDurable is internally synchronized.
    JAGUAR_RETURN_IF_ERROR(wal_->EnsureDurable(PageLsn(frame.data.get())));
  }
  // The dirty bit is the caller's to clear, under the shard latch: clearing
  // it here (off-latch) could clobber a concurrent MarkDirty from a pin
  // holder and silently drop that mutation from every future flush.
  return disk_->WritePage(frame.id.load(std::memory_order_relaxed),
                          frame.data.get());
}

void BufferPool::ReturnFreeFrame(size_t frame) {
  std::lock_guard<std::mutex> lk(free_mutex_);
  free_frames_.push_back(frame);
}

Result<bool> BufferPool::TryEvict(size_t frame) {
  Frame& f = frames_[frame];
  const PageId id = f.id.load(std::memory_order_relaxed);
  if (id == kInvalidPageId) return false;  // free, or being loaded
  Shard& s = ShardOf(id);
  auto lk = LockShard(s);
  // The frame may have moved on since `id` was read; only the shard's table
  // says what it holds now.
  auto it = s.table.find(id);
  if (it == s.table.end() || it->second != frame ||
      f.pin_count.load(std::memory_order_relaxed) > 0 ||
      f.state != FrameState::kIdle) {
    return false;
  }
  if (f.ref) {
    f.ref = false;  // second chance
    return false;
  }
  // Victim found. Unmap it before dropping the latch; fetchers of the victim
  // page wait on the in-flight table until the write-back lands, then
  // re-read from disk.
  s.table.erase(it);
  if (f.dirty) {
    s.io.insert(id);
    ++s.inflight_writes;
    lk.unlock();
    Status ws = WriteBackFrame(f);
    lk.lock();
    --s.inflight_writes;
    s.io.erase(id);
    s.cv.notify_all();
    if (!ws.ok()) {
      // Write-back failed: re-link the victim so its (still dirty) image
      // stays reachable instead of leaking an unreachable frame.
      s.table[id] = frame;
      f.ref = true;
      return ws;
    }
    f.dirty = false;
  }
  f.id.store(kInvalidPageId, std::memory_order_relaxed);
  // Count only now: a failed write-back above re-links the victim and
  // reclaims nothing, so it must not inflate the eviction counter.
  evictions_.fetch_add(1, std::memory_order_relaxed);
  static obs::Counter* evictions = PoolCounter("evictions");
  evictions->Add();
  return true;
}

Result<size_t> BufferPool::AcquireFrame() {
  {
    std::lock_guard<std::mutex> lk(free_mutex_);
    if (!free_frames_.empty()) {
      size_t f = free_frames_.back();
      free_frames_.pop_back();
      return f;
    }
  }
  // Two turns' worth of steps: alone, the hand clears every `ref` bit in the
  // first and finds a victim in the second if any frame is unpinned.
  for (size_t step = 0; step < 2 * capacity_; ++step) {
    const size_t frame =
        hand_.fetch_add(1, std::memory_order_relaxed) % capacity_;
    JAGUAR_ASSIGN_OR_RETURN(bool evicted, TryEvict(frame));
    if (evicted) return frame;
  }
  return ResourceExhausted("buffer pool exhausted: all frames pinned");
}

Result<PageGuard> BufferPool::FetchPage(PageId id) {
  Shard& s = ShardOf(id);
  auto lk = LockShard(s);
  // One fetch counts as at most one io_wait no matter how many condvar
  // wakeups it takes (notify_all storms would otherwise overcount).
  bool waited = false;
  for (;;) {
    auto it = s.table.find(id);
    if (it != s.table.end()) {
      Frame& f = frames_[it->second];
      if (f.state == FrameState::kWriting) {
        // Write-back in flight; pinning now would let the image mutate
        // under the disk write. Wait for it to finish.
        waited = true;
        s.cv.wait(lk);
        continue;
      }
      if (waited) CountIoWait();
      hits_.fetch_add(1, std::memory_order_relaxed);
      static obs::Counter* hits = PoolCounter("hits");
      hits->Add();
      f.ref = true;
      f.pin_count.fetch_add(1, std::memory_order_relaxed);
      return PageGuard(this, it->second, id, f.data.get());
    }
    if (s.io.count(id) != 0) {
      // Someone else is already reading this page (or writing the evicted
      // image back). Wait for the single I/O instead of duplicating it.
      waited = true;
      s.cv.wait(lk);
      continue;
    }
    break;  // genuine miss and we own the read
  }
  if (waited) CountIoWait();
  misses_.fetch_add(1, std::memory_order_relaxed);
  static obs::Counter* misses = PoolCounter("misses");
  misses->Add();
  s.io.insert(id);
  lk.unlock();

  Result<size_t> fr = AcquireFrame();
  if (!fr.ok()) {
    lk.lock();
    s.io.erase(id);
    s.cv.notify_all();
    return fr.status();
  }
  Frame& f = frames_[*fr];
  Status rs = disk_->ReadPage(id, f.data.get());

  lk.lock();
  s.io.erase(id);
  if (!rs.ok()) {
    s.cv.notify_all();
    lk.unlock();
    ReturnFreeFrame(*fr);
    return rs;
  }
  f.id.store(id, std::memory_order_relaxed);
  f.dirty = false;
  f.ref = true;
  f.state = FrameState::kIdle;
  f.pin_count.store(1, std::memory_order_relaxed);
  s.table[id] = *fr;
  s.cv.notify_all();
  return PageGuard(this, *fr, id, f.data.get());
}

Result<PageGuard> BufferPool::NewPage() {
  // Frame first: allocating grows the file, and a refused call must not
  // leave a page behind that nothing references and no log record covers.
  JAGUAR_ASSIGN_OR_RETURN(size_t fidx, AcquireFrame());
  Result<PageId> allocated = disk_->AllocatePage();
  if (!allocated.ok()) {
    ReturnFreeFrame(fidx);
    return allocated.status();
  }
  // A freshly allocated page id cannot be cached or in flight anywhere, so
  // no coalescing bookkeeping is needed before publishing it.
  const PageId id = *allocated;
  Shard& s = ShardOf(id);
  Frame& f = frames_[fidx];
  std::memset(f.data.get(), 0, kPageSize);
  auto lk = LockShard(s);
  f.id.store(id, std::memory_order_relaxed);
  f.dirty = true;
  f.ref = true;
  f.state = FrameState::kIdle;
  f.pin_count.store(1, std::memory_order_relaxed);
  s.table[id] = fidx;
  return PageGuard(this, fidx, id, f.data.get());
}

void BufferPool::Unpin(size_t frame, PageId id) {
  Shard& s = ShardOf(id);
  auto lk = LockShard(s);
  Frame& f = frames_[frame];
  JAGUAR_CHECK(f.pin_count.load(std::memory_order_relaxed) > 0);
  f.pin_count.fetch_sub(1, std::memory_order_relaxed);
}

void BufferPool::MarkFrameDirty(size_t frame, PageId id) {
  Shard& s = ShardOf(id);
  auto lk = LockShard(s);
  frames_[frame].dirty = true;
}

Status BufferPool::FlushAll() {
  // Excluding other flushes means no frame is kWriting while we scan, and
  // draining inflight_writes means every eviction write-back that started
  // before this flush has landed. Together that makes the post-flush data
  // file complete, which is what lets checkpoints truncate the log safely.
  //
  // The WAL fsync + page write run OFF the shard latch: the scan marks dirty
  // frames kWriting (pinned ones too — FlushAll writes them, it just keeps
  // fetch hits out while the image is under the disk write), then the latch
  // is dropped for the actual I/O so fetches, unpins and guard releases on
  // the shard are not stalled behind a page-by-page fsync scan.
  std::lock_guard<std::mutex> flush(flush_mutex_);
  Status result = Status::OK();
  std::vector<size_t> batch;
  for (size_t i = 0; i < shards_count_ && result.ok(); ++i) {
    Shard& s = shards_[i];
    batch.clear();
    {
      auto lk = LockShard(s);
      while (s.inflight_writes > 0) s.cv.wait(lk);
      for (const auto& [id, fidx] : s.table) {
        Frame& f = frames_[fidx];
        if (f.dirty) {
          f.state = FrameState::kWriting;
          // Clear dirty at mark time, under the latch: a pin holder's
          // MarkDirty during our off-latch write then re-dirties the frame,
          // so a mutation the write may have missed is flushed next time
          // instead of being lost to an off-latch dirty=false.
          f.dirty = false;
          s.io.insert(id);
          batch.push_back(fidx);
        }
      }
    }
    for (size_t fidx : batch) {
      Frame& f = frames_[fidx];
      // After the first failure stop issuing writes, but keep clearing the
      // kWriting marks so waiting fetchers are not stuck forever.
      const bool wrote = result.ok();
      Status ws = wrote ? WriteBackFrame(f) : Status::OK();
      auto lk = LockShard(s);
      if (!wrote || !ws.ok()) f.dirty = true;  // image did not reach disk
      f.state = FrameState::kIdle;
      s.io.erase(f.id.load(std::memory_order_relaxed));
      s.cv.notify_all();
      if (!ws.ok()) result = ws;
    }
  }
  JAGUAR_RETURN_IF_ERROR(result);
  return disk_->Sync();
}

Status BufferPool::Discard(PageId id) {
  Shard& s = ShardOf(id);
  auto lk = LockShard(s);
  for (;;) {
    if (s.io.count(id) != 0) {
      s.cv.wait(lk);
      continue;
    }
    auto it = s.table.find(id);
    if (it == s.table.end()) return Status::OK();
    Frame& f = frames_[it->second];
    if (f.state == FrameState::kWriting) {
      s.cv.wait(lk);
      continue;
    }
    if (f.pin_count.load(std::memory_order_relaxed) > 0) {
      return Internal(StringPrintf("discard of pinned page %u", id));
    }
    const size_t fidx = it->second;
    f.id.store(kInvalidPageId, std::memory_order_relaxed);
    f.dirty = false;
    s.table.erase(it);
    lk.unlock();
    ReturnFreeFrame(fidx);
    return Status::OK();
  }
}

size_t BufferPool::pinned_frames() const {
  size_t n = 0;
  for (size_t i = 0; i < shards_count_; ++i) {
    Shard& s = shards_[i];
    std::lock_guard<std::mutex> lk(s.latch);
    for (const auto& [id, fidx] : s.table) {
      if (frames_[fidx].pin_count.load(std::memory_order_relaxed) > 0) ++n;
    }
  }
  return n;
}

}  // namespace jaguar
