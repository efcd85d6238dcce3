// Buffer-pool scalability sweep: hot-cache fetch throughput under 1 vs 4
// worker threads, with the shard count ablated (1 shard reproduces the old
// single-latch pool; 0 = auto sharding), plus a duplicate-read-suppression
// probe.
//
// Runs against a raw DiskManager + BufferPool (no SQL layer) so the numbers
// isolate the page-cache path: latch acquisition, page-table lookup, clock
// maintenance and miss I/O.
//
// Emits BENCH_bufferpool.json (machine-readable numbers for CI artifacts).
// Shape checks require concurrent misses of one page to issue exactly one
// disk read, and — on machines with >= 4 cores — the 4-worker hot-cache
// sweep to beat the single-shard pool by >= 2x. Below 4 cores the scaling
// check is skipped (a single core cannot exhibit latch parallelism).

#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "common/clock.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace jaguar {
namespace bench {
namespace {

struct HotResult {
  size_t shards = 0;
  size_t workers = 0;
  double seconds = 0;
  double fetches_per_sec = 0;
};

/// Times `iters` hot-cache fetches per worker. Every page fits in the pool,
/// so after warm-up each fetch is a pure latch + page-table + pin round trip.
HotResult TimeHotFetches(DiskManager* dm, size_t pages, size_t shards,
                         size_t workers, size_t iters) {
  BufferPoolConfig config;
  config.shards = shards;
  config.workers_hint = workers;
  BufferPool pool(dm, pages, /*wal=*/nullptr, config);
  for (PageId id = 0; id < pages; ++id) {
    auto g = pool.FetchPage(id);
    if (!g.ok()) {
      std::fprintf(stderr, "warm-up fetch failed: %s\n",
                   g.status().ToString().c_str());
      std::exit(1);
    }
  }

  std::atomic<size_t> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      // Per-worker stride walk: co-prime stride covers all pages while
      // spreading concurrent workers across shards.
      PageId id = (w * 977) % pages;
      const PageId stride = 769 % pages;
      for (size_t i = 0; i < iters; ++i) {
        auto g = pool.FetchPage(id);
        if (!g.ok() || g.value().data()[0] != 0) std::abort();
        id = (id + stride) % pages;
      }
    });
  }
  while (ready.load() < workers) std::this_thread::yield();
  Stopwatch clock;
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();

  HotResult r;
  r.shards = pool.num_shards();
  r.workers = workers;
  r.seconds = clock.ElapsedSeconds();
  r.fetches_per_sec =
      r.seconds > 0 ? static_cast<double>(iters * workers) / r.seconds : 0;
  return r;
}

/// 8 threads barrier-fetch the same uncached page; returns the disk-read
/// delta (must be 1: the miss coalescing contract).
uint64_t DuplicateReadProbe(DiskManager* dm, PageId target) {
  BufferPoolConfig config;
  config.workers_hint = 8;
  BufferPool pool(dm, 16, /*wal=*/nullptr, config);
  const uint64_t reads_before = dm->reads();
  std::atomic<size_t> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      auto g = pool.FetchPage(target);
      if (!g.ok()) std::abort();
    });
  }
  while (ready.load() < 8) std::this_thread::yield();
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  return dm->reads() - reads_before;
}

int Run() {
  const size_t pages = FullScale() ? 16384 : 2048;
  const size_t iters = FullScale() ? 2000000 : 200000;
  const unsigned cores = std::thread::hardware_concurrency();
  PrintHeader(
      "Buffer pool - shard scaling, miss coalescing",
      StringPrintf("%zu pages; hot fetch matrix (1 vs auto shards x 1 vs 4 "
                   "workers, %zu fetches/worker) on %u cores",
                   pages, iters, cores));

  const std::string path = "bench_bufferpool.db";
  std::remove(path.c_str());
  DiskManager dm;
  if (!dm.Open(path).ok() ||
      !dm.EnsureSize(static_cast<uint32_t>(pages)).ok()) {
    std::fprintf(stderr, "failed to create %s\n", path.c_str());
    return 1;
  }

  // Hot-cache fetch matrix: shards x workers.
  std::vector<HotResult> hot;
  PrintSeriesHeader("shards", {"workers", "seconds", "Mfetch/s"});
  for (size_t shards : {size_t{1}, size_t{0}}) {  // 0 = auto
    for (size_t workers : {size_t{1}, size_t{4}}) {
      HotResult r = TimeHotFetches(&dm, pages, shards, workers, iters);
      hot.push_back(r);
      std::printf("%12zu %12zu %12.6f %12.2f\n", r.shards, r.workers,
                  r.seconds, r.fetches_per_sec / 1e6);
    }
  }

  const uint64_t dup_reads = DuplicateReadProbe(&dm, pages / 2);
  std::printf("\n8-thread concurrent miss of one page: %llu disk read(s)\n",
              static_cast<unsigned long long>(dup_reads));

  // Machine-readable artifact for CI trend tracking.
  std::FILE* json = std::fopen("BENCH_bufferpool.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n  \"pages\": %zu,\n  \"cores\": %u,\n", pages,
                 cores);
    std::fprintf(json, "  \"hot_fetch\": {\n");
    for (size_t i = 0; i < hot.size(); ++i) {
      std::fprintf(json,
                   "    \"shards%zu_workers%zu\": {\"seconds\": %.6f, "
                   "\"fetches_per_sec\": %.0f}%s\n",
                   hot[i].shards, hot[i].workers, hot[i].seconds,
                   hot[i].fetches_per_sec, i + 1 < hot.size() ? "," : "");
    }
    std::fprintf(json, "  },\n  \"duplicate_read_suppression\": %llu\n}\n",
                 static_cast<unsigned long long>(dup_reads));
    std::fclose(json);
    std::printf("wrote BENCH_bufferpool.json\n");
  }

  std::printf("\nShape checks:\n");
  bool ok = true;
  ok &= ShapeCheck(dup_reads == 1,
                   "concurrent misses of one page issue exactly one read");
  // hot[1] = 1 shard / 4 workers, hot[3] = auto shards / 4 workers.
  const double speedup =
      hot[3].seconds > 0 ? hot[1].seconds / hot[3].seconds : 0;
  if (cores >= 4) {
    ok &= ShapeCheck(
        speedup >= 2.0,
        StringPrintf("4-worker hot cache: auto shards beat 1 shard >= 2x "
                     "(got %.2fx)",
                     speedup));
  } else {
    std::printf("SKIP  shard-scaling >= 2x check (needs >= 4 cores, have %u; "
                "measured %.2fx)\n",
                cores, speedup);
  }

  dm.Close();
  std::remove(path.c_str());
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace jaguar

int main() { return jaguar::bench::Run(); }
