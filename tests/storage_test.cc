// Tests for src/storage: disk manager, slotted pages, buffer pool,
// storage engine free list, table heap (including overflow chains).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/slotted_page.h"
#include "storage/storage_engine.h"
#include "storage/table_heap.h"
#include "temp_db.h"

namespace jaguar {
namespace {

TEST(DiskManagerTest, AllocateReadWrite) {
  TempDb db("disk");
  DiskManager dm;
  ASSERT_TRUE(dm.Open(db.path()).ok());
  EXPECT_EQ(dm.num_pages(), 0u);

  ASSERT_TRUE(dm.AllocatePage().ok());
  ASSERT_EQ(dm.AllocatePage().value(), 1u);
  EXPECT_EQ(dm.num_pages(), 2u);

  std::vector<uint8_t> buf(kPageSize, 0x5A);
  ASSERT_TRUE(dm.WritePage(1, buf.data()).ok());
  std::vector<uint8_t> out(kPageSize, 0);
  ASSERT_TRUE(dm.ReadPage(1, out.data()).ok());
  EXPECT_EQ(out, buf);

  // Unallocated access is rejected.
  EXPECT_TRUE(dm.ReadPage(9, out.data()).IsInvalidArgument());
  EXPECT_TRUE(dm.WritePage(9, buf.data()).IsInvalidArgument());
  ASSERT_TRUE(dm.Close().ok());
}

TEST(DiskManagerTest, ReopenSeesPersistedPages) {
  TempDb db("disk_reopen");
  {
    DiskManager dm;
    ASSERT_TRUE(dm.Open(db.path()).ok());
    ASSERT_TRUE(dm.AllocatePage().ok());
    std::vector<uint8_t> buf(kPageSize, 7);
    ASSERT_TRUE(dm.WritePage(0, buf.data()).ok());
    ASSERT_TRUE(dm.Close().ok());
  }
  DiskManager dm;
  ASSERT_TRUE(dm.Open(db.path()).ok());
  EXPECT_EQ(dm.num_pages(), 1u);
  std::vector<uint8_t> out(kPageSize);
  ASSERT_TRUE(dm.ReadPage(0, out.data()).ok());
  EXPECT_EQ(out[0], 7);
  EXPECT_EQ(out[kPageSize - 1], 7);
}

TEST(SlottedPageTest, InsertGetDelete) {
  std::vector<uint8_t> buf(kPageSize);
  SlottedPage sp(buf.data());
  sp.Init();
  EXPECT_EQ(sp.num_slots(), 0u);
  EXPECT_TRUE(sp.CheckInvariants().ok());

  uint16_t s0 = sp.Insert(Slice("hello")).value();
  uint16_t s1 = sp.Insert(Slice("world!")).value();
  EXPECT_EQ(sp.Get(s0).value().ToString(), "hello");
  EXPECT_EQ(sp.Get(s1).value().ToString(), "world!");
  EXPECT_TRUE(sp.CheckInvariants().ok());

  ASSERT_TRUE(sp.Delete(s0).ok());
  EXPECT_TRUE(sp.Get(s0).status().IsNotFound());
  EXPECT_TRUE(sp.Delete(s0).IsNotFound());  // double delete
  EXPECT_EQ(sp.Get(s1).value().ToString(), "world!");

  // Tombstone slot is reused.
  uint16_t s2 = sp.Insert(Slice("again")).value();
  EXPECT_EQ(s2, s0);
  EXPECT_TRUE(sp.CheckInvariants().ok());
}

TEST(SlottedPageTest, ZeroLengthRecords) {
  std::vector<uint8_t> buf(kPageSize);
  SlottedPage sp(buf.data());
  sp.Init();
  uint16_t s = sp.Insert(Slice()).value();
  EXPECT_EQ(sp.Get(s).value().size(), 0u);
  EXPECT_TRUE(sp.CheckInvariants().ok());
  ASSERT_TRUE(sp.Delete(s).ok());
  EXPECT_TRUE(sp.Get(s).status().IsNotFound());
}

TEST(SlottedPageTest, FillsUpThenRejects) {
  std::vector<uint8_t> buf(kPageSize);
  SlottedPage sp(buf.data());
  sp.Init();
  std::string rec(100, 'r');
  int inserted = 0;
  while (true) {
    Result<uint16_t> s = sp.Insert(Slice(rec));
    if (!s.ok()) {
      EXPECT_TRUE(s.status().IsResourceExhausted());
      break;
    }
    ++inserted;
  }
  // 8192 / 104 ≈ 78 records.
  EXPECT_GT(inserted, 70);
  EXPECT_TRUE(sp.CheckInvariants().ok());
}

TEST(SlottedPageTest, CompactionReclaimsDeletedSpace) {
  std::vector<uint8_t> buf(kPageSize);
  SlottedPage sp(buf.data());
  sp.Init();
  std::string rec(1000, 'x');
  std::vector<uint16_t> slots;
  while (true) {
    Result<uint16_t> s = sp.Insert(Slice(rec));
    if (!s.ok()) break;
    slots.push_back(*s);
  }
  ASSERT_GE(slots.size(), 4u);
  // Delete every other record, then a big insert must succeed via Compact.
  for (size_t i = 0; i < slots.size(); i += 2) {
    ASSERT_TRUE(sp.Delete(slots[i]).ok());
  }
  std::string big(1800, 'y');
  Result<uint16_t> s = sp.Insert(Slice(big));
  ASSERT_TRUE(s.ok()) << s.status();
  EXPECT_EQ(sp.Get(*s).value().ToString(), big);
  // Survivors are intact after compaction.
  for (size_t i = 1; i < slots.size(); i += 2) {
    EXPECT_EQ(sp.Get(slots[i]).value().ToString(), rec);
  }
  EXPECT_TRUE(sp.CheckInvariants().ok());
}

TEST(SlottedPageTest, RejectsOversizeRecord) {
  std::vector<uint8_t> buf(kPageSize);
  SlottedPage sp(buf.data());
  sp.Init();
  std::string huge(kPageSize, 'z');
  EXPECT_FALSE(sp.Fits(static_cast<uint32_t>(huge.size())));
  EXPECT_TRUE(sp.Insert(Slice(huge)).status().IsInvalidArgument());
}

// Property sweep: random insert/delete sequences keep invariants and a shadow
// map in sync, `Fits` predicts every insert's outcome, and an insert is
// refused only when even a compacted page has no room for it.
class SlottedPageFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(SlottedPageFuzzTest, MatchesShadowModel) {
  Random rng(GetParam() * 7919 + 13);
  std::vector<uint8_t> buf(kPageSize);
  SlottedPage sp(buf.data());
  sp.Init();
  std::map<uint16_t, std::string> shadow;
  for (int step = 0; step < 500; ++step) {
    if (shadow.empty() || rng.Bernoulli(0.6)) {
      std::string rec = rng.AlphaString(rng.Uniform(300));
      const bool fits = sp.Fits(static_cast<uint32_t>(rec.size()));
      Result<uint16_t> s = sp.Insert(Slice(rec));
      ASSERT_EQ(s.ok(), fits) << "step " << step;
      if (s.ok()) {
        shadow[*s] = rec;
      } else {
        ASSERT_TRUE(s.status().IsResourceExhausted());
        // A live slot per shadow entry; any other slot is a reusable
        // tombstone, else the record also needs a new 4-byte slot.
        std::vector<uint8_t> copy = buf;
        SlottedPage compacted(copy.data());
        compacted.Compact();
        const bool tombstone = compacted.num_slots() > shadow.size();
        ASSERT_LT(compacted.FreeSpace(), rec.size() + (tombstone ? 0 : 4))
            << "step " << step;
      }
    } else {
      auto it = shadow.begin();
      std::advance(it, rng.Uniform(shadow.size()));
      ASSERT_TRUE(sp.Delete(it->first).ok());
      shadow.erase(it);
    }
    ASSERT_TRUE(sp.CheckInvariants().ok());
  }
  for (const auto& [slot, rec] : shadow) {
    EXPECT_EQ(sp.Get(slot).value().ToString(), rec);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SlottedPageFuzzTest, ::testing::Range(0, 10));

// `Room()` is exact: over random page states, a record of exactly that
// many bytes goes in (compacting if it must) and one byte more is refused.
TEST(SlottedPageTest, RoomIsTheLargestRecordInsertAccepts) {
  Random rng(77);
  std::vector<uint8_t> buf(kPageSize);
  SlottedPage sp(buf.data());
  sp.Init();
  std::vector<uint16_t> live;
  for (int step = 0; step < 400; ++step) {
    if (live.empty() || rng.Bernoulli(0.6)) {
      Result<uint16_t> s = sp.Insert(Slice(rng.AlphaString(rng.Uniform(400))));
      if (s.ok()) live.push_back(*s);
    } else {
      const size_t i = rng.Uniform(live.size());
      ASSERT_TRUE(sp.Delete(live[i]).ok());
      live[i] = live.back();
      live.pop_back();
    }
    const int32_t room = sp.Room();
    ASSERT_GE(room, -1);
    std::vector<uint8_t> copy = buf;
    SlottedPage probe(copy.data());
    EXPECT_TRUE(
        probe.Insert(Slice(std::string(static_cast<size_t>(room + 1), 'x')))
            .status()
            .IsResourceExhausted() ||
        static_cast<uint32_t>(room + 1) > SlottedPage::MaxRecordSize())
        << "step " << step;
    if (room >= 0) {
      ASSERT_TRUE(probe.Insert(Slice(std::string(room, 'y'))).ok())
          << "step " << step;
      ASSERT_TRUE(probe.CheckInvariants().ok()) << "step " << step;
      EXPECT_LT(probe.Room(), 1) << "step " << step;
    }
  }
}

TEST(BufferPoolTest, FetchCachesPages) {
  TempDb db("pool");
  DiskManager dm;
  ASSERT_TRUE(dm.Open(db.path()).ok());
  BufferPool pool(&dm, 4);
  PageId id;
  {
    PageGuard p = pool.NewPage().value();
    id = p.id();
    p.data()[0] = 42;
    p.MarkDirty();
  }
  {
    PageGuard p = pool.FetchPage(id).value();
    EXPECT_EQ(p.data()[0], 42);
  }
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.misses(), 0u);
}

TEST(BufferPoolTest, EvictionWritesBackDirtyPages) {
  TempDb db("pool_evict");
  DiskManager dm;
  ASSERT_TRUE(dm.Open(db.path()).ok());
  BufferPool pool(&dm, 2);
  std::vector<PageId> ids;
  for (int i = 0; i < 8; ++i) {
    PageGuard p = pool.NewPage().value();
    p.data()[0] = static_cast<uint8_t>(i + 1);
    p.MarkDirty();
    ids.push_back(p.id());
  }
  // All 8 pages round-trip through a 2-frame pool.
  for (int i = 0; i < 8; ++i) {
    PageGuard p = pool.FetchPage(ids[i]).value();
    EXPECT_EQ(p.data()[0], i + 1);
  }
  EXPECT_GT(pool.misses(), 0u);
}

TEST(BufferPoolTest, AllPinnedFails) {
  TempDb db("pool_pinned");
  DiskManager dm;
  ASSERT_TRUE(dm.Open(db.path()).ok());
  BufferPool pool(&dm, 2);
  PageGuard a = pool.NewPage().value();
  PageGuard b = pool.NewPage().value();
  EXPECT_TRUE(pool.NewPage().status().IsResourceExhausted());
  b.Release();
  EXPECT_TRUE(pool.NewPage().ok());
}

TEST(BufferPoolTest, RefusedNewPageDoesNotGrowTheFile) {
  TempDb db("pool_refused_new");
  DiskManager dm;
  ASSERT_TRUE(dm.Open(db.path()).ok());
  BufferPool pool(&dm, 2);
  PageGuard a = pool.NewPage().value();
  PageGuard b = pool.NewPage().value();
  ASSERT_EQ(dm.num_pages(), 2u);
  // Every frame is pinned, so the pool refuses. The file must stay as it
  // was: a page allocated first would sit at its end with nothing
  // referencing it and no log record covering it.
  EXPECT_TRUE(pool.NewPage().status().IsResourceExhausted());
  EXPECT_EQ(dm.num_pages(), 2u);
  b.Release();
  {
    PageGuard c = pool.NewPage().value();
    EXPECT_EQ(c.id(), 2u);
  }
  // A failed allocation hands its frame back. With the file closed every
  // call fails after taking a frame; had those frames leaked, the pool
  // could not hold two new pages once the file reopens.
  a.Release();
  ASSERT_TRUE(pool.FlushAll().ok());
  ASSERT_TRUE(dm.Close().ok());
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(pool.NewPage().status().IsInternal());
  }
  ASSERT_TRUE(dm.Open(db.path()).ok());
  Result<PageGuard> d = pool.NewPage();
  Result<PageGuard> e = pool.NewPage();
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  EXPECT_EQ(d->id(), 3u);
  EXPECT_EQ(e->id(), 4u);
}

TEST(BufferPoolTest, GuardMoveKeepsSinglePin) {
  TempDb db("pool_move");
  DiskManager dm;
  ASSERT_TRUE(dm.Open(db.path()).ok());
  BufferPool pool(&dm, 2);
  PageGuard a = pool.NewPage().value();
  EXPECT_EQ(pool.pinned_frames(), 1u);
  PageGuard b = std::move(a);
  EXPECT_EQ(pool.pinned_frames(), 1u);
  b.Release();
  EXPECT_EQ(pool.pinned_frames(), 0u);
}

TEST(BufferPoolTest, ShardCountScalesWithWorkersAndClampsToCapacity) {
  TempDb db("pool_shards");
  DiskManager dm;
  ASSERT_TRUE(dm.Open(db.path()).ok());
  {
    BufferPool pool(&dm, 64);  // default workers_hint = 1
    EXPECT_EQ(pool.num_shards(), 2u);
  }
  BufferPoolConfig config;
  config.workers_hint = 4;
  {
    BufferPool pool(&dm, 64, nullptr, config);
    EXPECT_EQ(pool.num_shards(), 8u);
  }
  config.workers_hint = 32;  // auto shard count caps at 16
  {
    BufferPool pool(&dm, 64, nullptr, config);
    EXPECT_EQ(pool.num_shards(), 16u);
  }
  config.shards = 5;  // explicit counts round up to a power of two
  {
    BufferPool pool(&dm, 64, nullptr, config);
    EXPECT_EQ(pool.num_shards(), 8u);
  }
  config.shards = 16;  // ... and clamp to the capacity
  {
    BufferPool pool(&dm, 2, nullptr, config);
    EXPECT_EQ(pool.num_shards(), 2u);
  }
}

// DiskManager that counts reads and makes each one slow enough that
// concurrent misses of the same page overlap deterministically.
class SlowCountingDisk : public DiskManager {
 public:
  Status ReadPage(PageId id, uint8_t* out) override {
    reads_started.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return DiskManager::ReadPage(id, out);
  }
  std::atomic<int> reads_started{0};
};

TEST(BufferPoolTest, ConcurrentMissesOfOnePageIssueOneRead) {
  TempDb db("pool_dupread");
  SlowCountingDisk dm;
  ASSERT_TRUE(dm.Open(db.path()).ok());
  PageId id = dm.AllocatePage().value();
  std::vector<uint8_t> buf(kPageSize, 0xAB);
  ASSERT_TRUE(dm.WritePage(id, buf.data()).ok());

  BufferPoolConfig config;
  config.workers_hint = 4;
  BufferPool pool(&dm, 8, nullptr, config);

  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      auto page = pool.FetchPage(id);
      if (!page.ok() || page->data()[0] != 0xAB) failures.fetch_add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(dm.reads_started.load(), 1);
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_EQ(pool.hits(), static_cast<uint64_t>(kThreads - 1));
  EXPECT_GE(pool.io_waits(), 1u);
  EXPECT_EQ(pool.pinned_frames(), 0u);
}

// DiskManager whose page writes can be made to fail on demand.
class FailingWriteDisk : public DiskManager {
 public:
  Status WritePage(PageId id, const uint8_t* data) override {
    if (fail_writes.load()) return IoError("injected write failure");
    return DiskManager::WritePage(id, data);
  }
  std::atomic<bool> fail_writes{false};
};

TEST(BufferPoolTest, FailedWriteBackKeepsVictimReachable) {
  TempDb db("pool_wbfail");
  FailingWriteDisk dm;
  ASSERT_TRUE(dm.Open(db.path()).ok());
  BufferPool pool(&dm, 2);
  std::vector<PageId> ids;
  for (int i = 0; i < 2; ++i) {
    PageGuard p = pool.NewPage().value();
    p.data()[0] = static_cast<uint8_t>(0x10 + i);
    p.MarkDirty();
    ids.push_back(p.id());
  }
  // Both frames hold dirty pages; a third page needs an eviction, whose
  // write-back fails. The error must surface AND the dirty victim must stay
  // fetchable (the old pool leaked the frame on this path).
  dm.fail_writes.store(true);
  EXPECT_TRUE(pool.NewPage().status().IsIoError());
  dm.fail_writes.store(false);
  for (int i = 0; i < 2; ++i) {
    PageGuard p = pool.FetchPage(ids[i]).value();
    EXPECT_EQ(p.data()[0], 0x10 + i);
  }
  EXPECT_TRUE(pool.NewPage().ok());  // eviction works again
}

// DiskManager whose page writes park until released, to observe what the
// pool keeps available while a write-back is in flight.
class GatedWriteDisk : public DiskManager {
 public:
  Status WritePage(PageId id, const uint8_t* data) override {
    {
      std::unique_lock<std::mutex> lk(m_);
      if (gated_) {
        started_ = true;
        cv_.notify_all();
        cv_.wait(lk, [this] { return !gated_; });
      }
    }
    return DiskManager::WritePage(id, data);
  }
  void Gate() {
    std::lock_guard<std::mutex> lk(m_);
    gated_ = true;
    started_ = false;
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lk(m_);
      gated_ = false;
    }
    cv_.notify_all();
  }
  void AwaitWriteStarted() {
    std::unique_lock<std::mutex> lk(m_);
    cv_.wait(lk, [this] { return started_; });
  }

 private:
  std::mutex m_;
  std::condition_variable cv_;
  bool gated_ = false;
  bool started_ = false;
};

TEST(BufferPoolTest, FlushAllDoesNotBlockFetchesDuringWriteBack) {
  TempDb db("pool_flush_offlatch");
  GatedWriteDisk dm;
  ASSERT_TRUE(dm.Open(db.path()).ok());
  BufferPoolConfig config;
  config.shards = 1;  // both pages behind the one shard latch
  BufferPool pool(&dm, 4, nullptr, config);
  PageId dirty_id, clean_id;
  {
    PageGuard a = pool.NewPage().value();
    dirty_id = a.id();
    PageGuard b = pool.NewPage().value();
    clean_id = b.id();
  }
  ASSERT_TRUE(pool.FlushAll().ok());  // both resident and clean
  {
    PageGuard a = pool.FetchPage(dirty_id).value();
    a.data()[0] = 7;
    a.MarkDirty();
  }
  dm.Gate();
  std::thread flusher([&] { EXPECT_TRUE(pool.FlushAll().ok()); });
  dm.AwaitWriteStarted();
  // FlushAll is parked inside the dirty page's write. The shard latch must
  // be free: a hit on the clean resident page completes immediately (the
  // old pool held the latch across the whole per-page fsync+write scan and
  // would hang here until the write finished).
  {
    Result<PageGuard> p = pool.FetchPage(clean_id);
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(p->id(), clean_id);
  }
  dm.Release();
  flusher.join();
  // The flushed mutation landed despite the gate.
  std::vector<uint8_t> check(kPageSize);
  ASSERT_TRUE(dm.ReadPage(dirty_id, check.data()).ok());
  EXPECT_EQ(check[0], 7);
}

// Multi-threaded fetch/evict/discard stress; meant for the TSan CI job.
// Each thread owns the pages whose id is congruent to its index (only
// owners mutate or discard), everyone reads everything.
TEST(BufferPoolConcurrencyTest, ParallelFetchEvictDiscardStress) {
  TempDb db("pool_stress");
  DiskManager dm;
  ASSERT_TRUE(dm.Open(db.path()).ok());

  constexpr int kThreads = 4;
  constexpr int kPages = 64;
  constexpr int kIters = 300;

  BufferPoolConfig config;
  config.workers_hint = kThreads;
  // Capacity is deliberately far below kPages so fetches constantly evict,
  // but above kThreads * 2 so concurrent transfers can't exhaust the pool.
  BufferPool pool(&dm, 16, nullptr, config);

  std::vector<PageId> ids;
  for (int i = 0; i < kPages; ++i) {
    PageGuard p = pool.NewPage().value();
    p.data()[0] = static_cast<uint8_t>(p.id() & 0xFF);
    p.MarkDirty();
    ids.push_back(p.id());
  }
  ASSERT_TRUE(pool.FlushAll().ok());

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Random rng(42 + t);
      for (int i = 0; i < kIters; ++i) {
        const int k = static_cast<int>(rng.Next() % kPages);
        const PageId id = ids[k];
        const bool owned = k % kThreads == t;
        if (owned && rng.Next() % 8 == 0) {
          // Discard is only legal while nobody has the page pinned; owners
          // are the only ones who discard, but a reader may hold a pin, so
          // an Internal "pinned" rejection is expected, not a failure.
          Status s = pool.Discard(id);
          if (!s.ok() && !s.IsInternal()) failures.fetch_add(1);
          continue;
        }
        auto page = pool.FetchPage(id);
        if (!page.ok()) {
          failures.fetch_add(1);
          continue;
        }
        if (page->data()[0] != static_cast<uint8_t>(id & 0xFF)) {
          failures.fetch_add(1);
        }
        if (owned) {
          page->data()[1]++;  // only the owner mutates
          page->MarkDirty();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(pool.pinned_frames(), 0u);
  EXPECT_GT(pool.evictions(), 0u);
  ASSERT_TRUE(pool.FlushAll().ok());
  // Every surviving page still carries its stamp after the dust settles.
  for (int k = 0; k < kPages; ++k) {
    PageGuard p = pool.FetchPage(ids[k]).value();
    EXPECT_EQ(p.data()[0], static_cast<uint8_t>(ids[k] & 0xFF));
  }
}

// Seeded single-threaded calls against a shadow copy of every live page's
// bytes, on pools small enough that the test itself pins every frame now
// and then. A call that needs a frame is refused exactly when the test
// holds them all; every other call succeeds and sees the shadow's bytes.
class BufferPoolModelTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BufferPoolModelTest, AgreesWithAShadowMap) {
  const size_t frames = GetParam();
  TempDb db("pool_model");
  std::map<PageId, std::vector<uint8_t>> shadow;  // every live page
  {
    DiskManager dm;
    ASSERT_TRUE(dm.Open(db.path()).ok());
    BufferPool pool(&dm, frames);
    Random rng(1000 + frames);
    std::vector<PageGuard> held;  // pins the test keeps across steps
    std::map<PageId, int> pins;   // held pins per page
    size_t refused = 0;
    auto keep_or_drop = [&](PageGuard g) {
      if (rng.Uniform(3) != 0) return;  // released at once
      ++pins[g.id()];
      held.push_back(std::move(g));
    };
    auto any_live_page = [&] {
      auto it = shadow.begin();
      std::advance(it, rng.Uniform(shadow.size()));
      return it->first;
    };
    for (int step = 0; step < 4000; ++step) {
      SCOPED_TRACE(testing::Message() << "step " << step);
      const bool all_pinned = pins.size() == frames;
      const uint64_t op = rng.Uniform(100);
      if (op < 15 && shadow.size() < 4 * frames + 4) {
        const uint32_t pages = dm.num_pages();
        Result<PageGuard> g = pool.NewPage();
        if (all_pinned) {
          ASSERT_TRUE(g.status().IsResourceExhausted()) << g.status().ToString();
          ASSERT_EQ(dm.num_pages(), pages);
          ++refused;
          continue;
        }
        ASSERT_TRUE(g.ok()) << g.status().ToString();
        ASSERT_EQ(g->id(), pages);
        std::vector<uint8_t>& want = shadow[g->id()];
        want.assign(kPageSize, 0);
        ASSERT_EQ(std::memcmp(g->data(), want.data(), kPageSize), 0);
        keep_or_drop(std::move(*g));
      } else if (op < 60 && !shadow.empty()) {
        const PageId id = any_live_page();
        Result<PageGuard> g = pool.FetchPage(id);
        if (all_pinned && pins.count(id) == 0) {
          ASSERT_TRUE(g.status().IsResourceExhausted()) << g.status().ToString();
          ++refused;
          continue;
        }
        ASSERT_TRUE(g.ok()) << g.status().ToString();
        std::vector<uint8_t>& want = shadow[id];
        ASSERT_EQ(std::memcmp(g->data(), want.data(), kPageSize), 0)
            << "page " << id;
        if (rng.Uniform(2) == 0) {
          const size_t at = rng.Uniform(kPageSize);
          want[at] = g->data()[at] = static_cast<uint8_t>(rng.Next());
          g->MarkDirty();
        }
        keep_or_drop(std::move(*g));
      } else if (op < 80 && !held.empty()) {
        const size_t i = rng.Uniform(held.size());
        const PageId id = held[i].id();
        held[i].Release();  // early: the guard itself outlives its pin
        held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
        if (--pins[id] == 0) pins.erase(id);
      } else if (op < 92 && !shadow.empty()) {
        const PageId id = any_live_page();
        if (pins.count(id) != 0) continue;
        // A discarded page's newest image is dropped on purpose, so the
        // shadow forgets it too.
        ASSERT_TRUE(pool.Discard(id).ok());
        shadow.erase(id);
      } else {
        // Pinned pages included, every live page's image reaches the file.
        ASSERT_TRUE(pool.FlushAll().ok());
        std::vector<uint8_t> on_disk(kPageSize);
        for (const auto& [id, want] : shadow) {
          ASSERT_TRUE(dm.ReadPage(id, on_disk.data()).ok());
          ASSERT_EQ(on_disk, want) << "page " << id;
        }
      }
      ASSERT_EQ(pool.pinned_frames(), pins.size());
    }
    EXPECT_GT(refused, 0u);
    EXPECT_GT(pool.evictions(), 0u);
    held.clear();
    EXPECT_EQ(pool.pinned_frames(), 0u);
    ASSERT_TRUE(pool.FlushAll().ok());
  }
  DiskManager fresh;
  ASSERT_TRUE(fresh.Open(db.path()).ok());
  std::vector<uint8_t> on_disk(kPageSize);
  for (const auto& [id, want] : shadow) {
    ASSERT_TRUE(fresh.ReadPage(id, on_disk.data()).ok());
    EXPECT_EQ(on_disk, want) << "page " << id;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Pools, BufferPoolModelTest, ::testing::Values(2, 3, 16),
    [](const ::testing::TestParamInfo<size_t>& info) {
      return std::to_string(info.param) + "_frames";
    });

TEST(StorageEngineTest, HeaderPersistsAcrossReopen) {
  TempDb db("engine");
  {
    auto engine = StorageEngine::Open(db.path()).value();
    ASSERT_TRUE(engine->SetCatalogRoot(17).ok());
    ASSERT_TRUE(engine->Close().ok());
  }
  auto engine = StorageEngine::Open(db.path()).value();
  EXPECT_EQ(engine->GetCatalogRoot().value(), 17u);
}

TEST(StorageEngineTest, RejectsForeignFile) {
  TempDb db("engine_bad");
  {
    DiskManager dm;
    ASSERT_TRUE(dm.Open(db.path()).ok());
    ASSERT_TRUE(dm.AllocatePage().ok());  // zeroed page: wrong magic
    ASSERT_TRUE(dm.Close().ok());
  }
  EXPECT_TRUE(StorageEngine::Open(db.path()).status().IsCorruption());
}

TEST(StorageEngineTest, FreeListReusesPages) {
  TempDb db("engine_free");
  auto engine = StorageEngine::Open(db.path()).value();
  PageId a = engine->AllocatePage().value();
  PageId b = engine->AllocatePage().value();
  EXPECT_EQ(engine->CountFreePages().value(), 0u);
  ASSERT_TRUE(engine->FreePage(a).ok());
  ASSERT_TRUE(engine->FreePage(b).ok());
  EXPECT_EQ(engine->CountFreePages().value(), 2u);
  // LIFO reuse: b then a, with no file growth.
  uint32_t pages_before = engine->disk()->num_pages();
  EXPECT_EQ(engine->AllocatePage().value(), b);
  EXPECT_EQ(engine->AllocatePage().value(), a);
  EXPECT_EQ(engine->disk()->num_pages(), pages_before);
  EXPECT_EQ(engine->CountFreePages().value(), 0u);
}

TEST(StorageEngineTest, CannotFreeHeaderOrInvalidPages) {
  TempDb db("engine_guard");
  auto engine = StorageEngine::Open(db.path()).value();
  EXPECT_TRUE(engine->FreePage(0).IsInvalidArgument());
  EXPECT_TRUE(engine->FreePage(kInvalidPageId).IsInvalidArgument());
  EXPECT_TRUE(engine->FreePage(999).IsInvalidArgument());
}

/// Reads the whole record `rid` through the heap's record-list cursor.
Result<std::vector<uint8_t>> ReadRecord(TableHeap* heap, RecordId rid) {
  const std::vector<RecordId> rids = {rid};
  TableHeap::Iterator it = heap->Fetch(rids);
  auto rec = it.Next();
  if (!rec.ok()) return rec.status();
  return std::move((*rec)->second);
}

TEST(TableHeapTest, InsertGetDeleteSmallRecords) {
  TempDb db("heap");
  auto engine = StorageEngine::Open(db.path()).value();
  PageId first = TableHeap::Create(engine.get()).value();
  TableHeap heap(engine.get(), first);

  RecordId r0 = heap.Insert(Slice("alpha")).value();
  RecordId r1 = heap.Insert(Slice("beta")).value();
  EXPECT_EQ(Slice(ReadRecord(&heap, r0).value()).ToString(), "alpha");
  EXPECT_EQ(Slice(ReadRecord(&heap, r1).value()).ToString(), "beta");

  ASSERT_TRUE(heap.Delete(r0).ok());
  // A deleted record read by id is a dangling reference.
  EXPECT_TRUE(ReadRecord(&heap, r0).status().IsCorruption());
  EXPECT_EQ(heap.CountRecords().value(), 1u);
}

TEST(TableHeapTest, SpansManyPages) {
  TempDb db("heap_many");
  auto engine = StorageEngine::Open(db.path()).value();
  PageId first = TableHeap::Create(engine.get()).value();
  TableHeap heap(engine.get(), first);
  std::vector<RecordId> rids;
  for (int i = 0; i < 2000; ++i) {
    std::string rec = "record-" + std::to_string(i) + std::string(50, '.');
    rids.push_back(heap.Insert(Slice(rec)).value());
  }
  EXPECT_GT(engine->disk()->num_pages(), 10u);
  for (int i = 0; i < 2000; i += 97) {
    std::string want = "record-" + std::to_string(i) + std::string(50, '.');
    EXPECT_EQ(Slice(ReadRecord(&heap, rids[i]).value()).ToString(), want);
  }
  EXPECT_EQ(heap.CountRecords().value(), 2000u);
}

TEST(TableHeapTest, OverflowRecordsRoundTrip) {
  TempDb db("heap_overflow");
  auto engine = StorageEngine::Open(db.path()).value();
  PageId first = TableHeap::Create(engine.get()).value();
  TableHeap heap(engine.get(), first);

  // The paper's Rel10000 case: ~10 KB records on 8 KB pages.
  Random rng(3);
  auto big = rng.Bytes(10000);
  auto bigger = rng.Bytes(100000);
  RecordId r_small = heap.Insert(Slice("tiny")).value();
  RecordId r_big = heap.Insert(Slice(big)).value();
  RecordId r_bigger = heap.Insert(Slice(bigger)).value();

  EXPECT_EQ(ReadRecord(&heap, r_big).value(), big);
  EXPECT_EQ(ReadRecord(&heap, r_bigger).value(), bigger);
  EXPECT_EQ(Slice(ReadRecord(&heap, r_small).value()).ToString(), "tiny");

  // Deleting an overflow record frees its chain pages.
  uint32_t free_before = engine->CountFreePages().value();
  ASSERT_TRUE(heap.Delete(r_bigger).ok());
  EXPECT_GT(engine->CountFreePages().value(), free_before + 10);
  EXPECT_TRUE(ReadRecord(&heap, r_bigger).status().IsCorruption());
  EXPECT_EQ(ReadRecord(&heap, r_big).value(), big);
}

TEST(TableHeapTest, ScanVisitsExactlyLiveRecords) {
  TempDb db("heap_scan");
  auto engine = StorageEngine::Open(db.path()).value();
  PageId first = TableHeap::Create(engine.get()).value();
  TableHeap heap(engine.get(), first);
  std::set<std::string> want;
  std::vector<RecordId> rids;
  for (int i = 0; i < 300; ++i) {
    std::string rec = "r" + std::to_string(i);
    rids.push_back(heap.Insert(Slice(rec)).value());
    want.insert(rec);
  }
  for (int i = 0; i < 300; i += 3) {
    ASSERT_TRUE(heap.Delete(rids[i]).ok());
    want.erase("r" + std::to_string(i));
  }
  std::set<std::string> got;
  TableHeap::Iterator it = heap.Scan();
  while (true) {
    auto rec = it.Next().value();
    if (!rec.has_value()) break;
    got.insert(Slice(rec->second).ToString());
  }
  EXPECT_EQ(got, want);
}

TEST(TableHeapTest, DropAllReturnsPagesToFreeList) {
  TempDb db("heap_drop");
  auto engine = StorageEngine::Open(db.path()).value();
  PageId first = TableHeap::Create(engine.get()).value();
  TableHeap heap(engine.get(), first);
  Random rng(9);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(heap.Insert(Slice(rng.Bytes(3000))).ok());
  }
  ASSERT_TRUE(heap.Insert(Slice(rng.Bytes(50000))).ok());  // overflow chain
  uint32_t total_pages = engine->disk()->num_pages();
  ASSERT_TRUE(heap.DropAll().ok());
  // Everything except the header page is now free.
  EXPECT_EQ(engine->CountFreePages().value(), total_pages - 1);
}

TEST(TableHeapTest, PersistsAcrossReopen) {
  TempDb db("heap_reopen");
  PageId first;
  {
    auto engine = StorageEngine::Open(db.path()).value();
    first = TableHeap::Create(engine.get()).value();
    TableHeap heap(engine.get(), first);
    ASSERT_TRUE(heap.Insert(Slice("persistent")).ok());
    ASSERT_TRUE(heap.Insert(Slice(Random(2).Bytes(20000))).ok());
    ASSERT_TRUE(engine->Close().ok());
  }
  auto engine = StorageEngine::Open(db.path()).value();
  TableHeap heap(engine.get(), first);
  EXPECT_EQ(heap.CountRecords().value(), 2u);
  auto rec = heap.Scan().Next().value();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(Slice(rec->second).ToString(), "persistent");
}

TEST(TableHeapTest, NoPinsLeakAfterOperations) {
  TempDb db("heap_pins");
  auto engine = StorageEngine::Open(db.path()).value();
  PageId first = TableHeap::Create(engine.get()).value();
  TableHeap heap(engine.get(), first);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(heap.Insert(Slice(Random(i).Bytes(i * 200))).ok());
  }
  ASSERT_TRUE(heap.CountRecords().ok());
  EXPECT_EQ(engine->buffer_pool()->pinned_frames(), 0u);
}

// ---------------------------------------------------------------------------
// Heap directory: an insert reads only the page a chain walk would pick.
// ---------------------------------------------------------------------------

/// Slot payload of a `len`-byte record (table_heap.h): a tag byte and the
/// record, or a 13-byte stub pointing at an overflow chain.
uint32_t PayloadSize(size_t len) {
  return len + 1 > SlottedPage::MaxRecordSize()
             ? 13u
             : static_cast<uint32_t>(len + 1);
}

/// The chain's pages, read by following its links.
std::vector<PageId> WalkChain(StorageEngine* engine, PageId first) {
  std::vector<PageId> pages;
  for (PageId pid = first; pid != kInvalidPageId;) {
    pages.push_back(pid);
    PageGuard page = engine->buffer_pool()->FetchPage(pid).value();
    pid = SlottedPage(page.data()).next_page_id();
  }
  return pages;
}

/// The page a walk of the chain from `start` stops at for a `payload`-byte
/// slot payload; kInvalidPageId when none has room and the chain grows.
PageId WalkPick(StorageEngine* engine, PageId start, uint32_t payload) {
  for (PageId pid = start; pid != kInvalidPageId;) {
    PageGuard page = engine->buffer_pool()->FetchPage(pid).value();
    SlottedPage sp(page.data());
    if (sp.Fits(payload)) return pid;
    pid = sp.next_page_id();
  }
  return kInvalidPageId;
}

/// Inline records of a few bytes, 1-4 KB records, and overflow records.
size_t RecordLen(Random* rng) {
  switch (rng->Uniform(3)) {
    case 0:
      return 1 + rng->Uniform(200);
    case 1:
      return 1000 + rng->Uniform(3097);
    default:
      return 9000 + rng->Uniform(11000);
  }
}

/// One heap under seeded statements. Each statement is one TableHeap: a
/// single-row insert, a multi-row insert, or a few deletes. Before every
/// insert the expected landing page is predicted by walking the chain from
/// where the statement's previous row went (its first row: the chain head).
class HeapWorkload {
 public:
  explicit HeapWorkload(uint64_t seed) : rng_(seed) {}

  void set_first(PageId first) {
    first_ = first;
    live_.clear();
  }
  PageId first() const { return first_; }

  void Run(StorageEngine* engine, int statements) {
    for (int s = 0; s < statements; ++s) {
      TableHeap heap(engine, first_);
      const uint64_t kind = rng_.Uniform(4);
      if (kind == 0 && !live_.empty()) {
        const uint64_t deletes = 1 + rng_.Uniform(4);
        for (uint64_t d = 0; d < deletes && !live_.empty(); ++d) {
          const size_t i = rng_.Uniform(live_.size());
          ASSERT_TRUE(heap.Delete(live_[i]).ok());
          live_[i] = live_.back();
          live_.pop_back();
        }
        continue;
      }
      const uint64_t rows = kind == 1 ? 2 + rng_.Uniform(7) : 1;
      PageId hint = first_;
      for (uint64_t r = 0; r < rows; ++r) {
        const size_t len = RecordLen(&rng_);
        const std::vector<PageId> chain = WalkChain(engine, first_);
        const PageId want = WalkPick(engine, hint, PayloadSize(len));
        Result<RecordId> rid = heap.Insert(Slice(rng_.Bytes(len)));
        ASSERT_TRUE(rid.ok()) << rid.status();
        if (want == kInvalidPageId) {
          // The chain grew by the page the record went to.
          EXPECT_EQ(std::count(chain.begin(), chain.end(), rid->page_id), 0);
          EXPECT_EQ(WalkChain(engine, first_).back(), rid->page_id);
        } else {
          EXPECT_EQ(rid->page_id, want) << "statement " << s << " row " << r;
        }
        hint = rid->page_id;
        live_.push_back(*rid);
      }
    }
    TableHeap heap(engine, first_);
    EXPECT_EQ(heap.ListPages().value(), WalkChain(engine, first_));
    EXPECT_EQ(heap.CountRecords().value(), live_.size());
  }

 private:
  Random rng_;
  PageId first_ = kInvalidPageId;
  std::vector<RecordId> live_;
};

class HeapDirectoryTest : public ::testing::TestWithParam<std::string> {};

TEST_P(HeapDirectoryTest, InsertLandsWhereAChainWalkWould) {
  const std::string scenario = GetParam();
  TempDb db("dir_" + scenario);
  TempDb image("dir_image_" + scenario);
  constexpr size_t kPoolPages = 64;
  for (uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    HeapWorkload work(seed);
    auto engine = StorageEngine::Open(db.path(), kPoolPages).value();
    work.set_first(TableHeap::Create(engine.get()).value());
    ASSERT_NO_FATAL_FAILURE(work.Run(engine.get(), 60));

    if (scenario == "Reopen") {
      ASSERT_TRUE(engine->Close().ok());
      engine = StorageEngine::Open(db.path(), kPoolPages).value();
    } else if (scenario == "CrashImage") {
      // The log is durable but the pages are dirty only in the pool: the
      // copied files are a crash image that recovery must redo.
      ASSERT_TRUE(engine->WalCommit().ok());
      std::filesystem::copy_file(
          db.path(), image.path(),
          std::filesystem::copy_options::overwrite_existing);
      std::filesystem::copy_file(
          db.path() + ".wal", image.path() + ".wal",
          std::filesystem::copy_options::overwrite_existing);
      ASSERT_TRUE(engine->Close().ok());
      engine = StorageEngine::Open(image.path(), kPoolPages).value();
      EXPECT_GE(engine->recovery_stats().pages_replayed, 1u);
    } else {
      // Drop the heap, then create heaps until one starts on its freed
      // first page: the directory of the dropped heap must not come back.
      const PageId old_first = work.first();
      ASSERT_TRUE(TableHeap(engine.get(), old_first).DropAll().ok());
      PageId fresh = kInvalidPageId;
      for (int i = 0; i < 10000 && fresh != old_first; ++i) {
        fresh = TableHeap::Create(engine.get()).value();
      }
      ASSERT_EQ(fresh, old_first);
      work.set_first(fresh);
    }
    ASSERT_NO_FATAL_FAILURE(work.Run(engine.get(), 60));
    EXPECT_EQ(engine->buffer_pool()->pinned_frames(), 0u);
    ASSERT_TRUE(engine->Close().ok());
    engine.reset();
    db.Remove();
    image.Remove();
  }
}

INSTANTIATE_TEST_SUITE_P(Scenarios, HeapDirectoryTest,
                         ::testing::Values("Reopen", "CrashImage",
                                           "DropAndRecreate"),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           return i.param;
                         });

TEST(HeapDirectoryTest, FailedInsertLeavesTheNextOnTheWalksPage) {
  TempDb db("dir_fail");
  constexpr size_t kPoolPages = 8;
  auto engine = StorageEngine::Open(db.path(), kPoolPages).value();
  const PageId first = TableHeap::Create(engine.get()).value();
  TableHeap heap(engine.get(), first);
  // Ten pages, each holding one 5 KB record: no page has room for another.
  const std::vector<uint8_t> big(5000, 0xAB);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(heap.Insert(Slice(big)).ok());
  std::vector<PageId> chain = WalkChain(engine.get(), first);
  ASSERT_EQ(chain.size(), 10u);

  {
    // Pin every frame, the header page and the chain's tail among them, so
    // growing the chain cannot allocate its page.
    std::vector<PageGuard> pins;
    pins.push_back(engine->buffer_pool()->FetchPage(0).value());
    pins.push_back(engine->buffer_pool()->FetchPage(chain.back()).value());
    for (size_t i = 0; pins.size() < kPoolPages; ++i) {
      pins.push_back(engine->buffer_pool()->FetchPage(chain[i]).value());
    }
    Result<RecordId> failed = heap.Insert(Slice(big));
    EXPECT_TRUE(failed.status().IsResourceExhausted()) << failed.status();
  }
  EXPECT_EQ(WalkChain(engine.get(), first), chain);

  // The next inserts land where a fresh walk puts them: a new tail page for
  // the big record, then the first page with room for a small one.
  const PageId want_small = WalkPick(engine.get(), first, PayloadSize(100));
  RecordId grown = heap.Insert(Slice(big)).value();
  EXPECT_EQ(std::count(chain.begin(), chain.end(), grown.page_id), 0);
  EXPECT_EQ(WalkChain(engine.get(), first).back(), grown.page_id);
  TableHeap next_statement(engine.get(), first);
  RecordId small = next_statement.Insert(Slice(std::vector<uint8_t>(100))).value();
  EXPECT_EQ(small.page_id, want_small);
  EXPECT_EQ(heap.ListPages().value(), WalkChain(engine.get(), first));
  EXPECT_EQ(engine->buffer_pool()->pinned_frames(), 0u);
}

}  // namespace
}  // namespace jaguar
