/// Unit + property tests for the SPSC shared-memory ring buffer behind the
/// isolated-UDF IPC channel: frame round-trips, zero-copy reserve/commit,
/// wraparound at every buffer offset, corrupted-frame rejection (seeded bit
/// flips), flow control, out-of-order release safety, the exited-peer check,
/// and a two-thread FIFO stress that doubles as the TSan race test (test
/// names carry "Ring" so the CI TSan job's regex picks them up).

#include "common/ring_buffer.h"

#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <random>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace jaguar {
namespace {

/// One ring over process-private memory (SPSC across threads is the same
/// protocol as across processes; the fork-based paths are covered by
/// ipc_test.cc and robustness_test.cc).
class RingHarness {
 public:
  explicit RingHarness(uint64_t capacity, uint64_t max_payload,
                       RingStats stats = {}) {
    mem_.resize(SpscRingBuffer::LayoutBytes(capacity));
    status_ = ring_.Init(mem_.data(), capacity, max_payload, stats);
  }
  ~RingHarness() { ring_.Destroy(); }

  SpscRingBuffer* ring() { return &ring_; }
  const Status& init_status() const { return status_; }

  /// Raw access to the data area (for the corruption tests).
  uint8_t* data() { return mem_.data() + sizeof(SpscRingBuffer::Control); }

 private:
  std::vector<uint8_t> mem_;
  SpscRingBuffer ring_;
  Status status_ = Status::OK();
};

std::vector<uint8_t> PatternPayload(size_t len, uint32_t seed) {
  std::vector<uint8_t> p(len);
  for (size_t i = 0; i < len; ++i) {
    p[i] = static_cast<uint8_t>((seed * 31 + i * 7) & 0xFF);
  }
  return p;
}

SpscRingBuffer::WaitOptions QuickWait() {
  SpscRingBuffer::WaitOptions w;
  w.budget_ns = 5ll * 1000000000;
  return w;
}

TEST(RingBufferTest, InitRejectsBadGeometry) {
  std::vector<uint8_t> mem(SpscRingBuffer::LayoutBytes(8192));
  SpscRingBuffer ring;
  EXPECT_FALSE(ring.Init(mem.data(), 5000, 64).ok());  // not a power of two
  EXPECT_FALSE(ring.Init(mem.data(), 1024, 64).ok());  // below the minimum
  // A maximal padded frame must fit in half the capacity (pipelining room).
  EXPECT_FALSE(ring.Init(mem.data(), 4096, 4000).ok());
  EXPECT_TRUE(ring.Init(mem.data(), 4096, 1024).ok());
  ring.Destroy();
}

TEST(RingBufferTest, RoundTripsFramesOfEverySize) {
  RingHarness h(8192, 2048);
  ASSERT_TRUE(h.init_status().ok());
  const SpscRingBuffer::WaitOptions w = QuickWait();
  for (size_t len : {size_t(0), size_t(1), size_t(7), size_t(8), size_t(13),
                     size_t(64), size_t(2048)}) {
    std::vector<uint8_t> payload = PatternPayload(len, 42);
    ASSERT_TRUE(h.ring()->Write(17, Slice(payload), w).ok()) << len;
    auto frame = h.ring()->Read(w);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(frame->type, 17u);
    ASSERT_EQ(frame->payload.size(), len);
    // std::equal, not memcmp: an empty vector's data() may be null, and
    // passing null to memcmp is undefined even for zero bytes.
    EXPECT_TRUE(std::equal(payload.begin(), payload.end(),
                           frame->payload.data()));
    h.ring()->Release(frame->end_pos);
  }
}

TEST(RingBufferTest, ZeroCopyPrepareCommitSkipsTheStagingBuffer) {
  RingHarness h(4096, 512);
  ASSERT_TRUE(h.init_status().ok());
  const SpscRingBuffer::WaitOptions w = QuickWait();
  auto buf = h.ring()->Prepare(256, w);
  ASSERT_TRUE(buf.ok());
  // The reservation points into the ring's data area, not a private buffer.
  EXPECT_GE(*buf, h.data());
  EXPECT_LT(*buf, h.data() + 4096);
  std::vector<uint8_t> payload = PatternPayload(100, 7);
  std::memcpy(*buf, payload.data(), payload.size());
  ASSERT_TRUE(h.ring()->Commit(3, 100).ok());  // actual < reserved is fine

  auto frame = h.ring()->Read(w);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->type, 3u);
  ASSERT_EQ(frame->payload.size(), 100u);
  // The view reads the same shared bytes the producer serialized into.
  EXPECT_EQ(frame->payload.data(), *buf);
  EXPECT_EQ(0, std::memcmp(frame->payload.data(), payload.data(), 100));
  h.ring()->Release(frame->end_pos);
}

TEST(RingBufferTest, AbortedReservationLeavesRingClean) {
  RingHarness h(4096, 512);
  ASSERT_TRUE(h.init_status().ok());
  const SpscRingBuffer::WaitOptions w = QuickWait();
  ASSERT_TRUE(h.ring()->Prepare(512, w).ok());
  h.ring()->Abort();
  std::vector<uint8_t> payload = PatternPayload(32, 9);
  ASSERT_TRUE(h.ring()->Write(1, Slice(payload), w).ok());
  auto frame = h.ring()->Read(w);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(0, std::memcmp(frame->payload.data(), payload.data(), 32));
  h.ring()->Release(frame->end_pos);
}

TEST(RingBufferTest, RejectsPayloadBeyondMaxAndCommitBeyondReservation) {
  RingHarness h(4096, 128);
  ASSERT_TRUE(h.init_status().ok());
  const SpscRingBuffer::WaitOptions w = QuickWait();
  std::vector<uint8_t> big(129, 0xAB);
  EXPECT_TRUE(h.ring()->Write(1, Slice(big), w).IsInvalidArgument());
  auto buf = h.ring()->Prepare(64, w);
  ASSERT_TRUE(buf.ok());
  EXPECT_FALSE(h.ring()->Commit(1, 65).ok());
}

TEST(RingBufferTest, ReadTimesOutOnAnEmptyRing) {
  RingHarness h(4096, 128);
  ASSERT_TRUE(h.init_status().ok());
  SpscRingBuffer::WaitOptions w;
  w.budget_ns = 50 * 1000000;  // 50 ms
  w.spin_limit = 16;
  auto frame = h.ring()->Read(w);
  ASSERT_FALSE(frame.ok());
  EXPECT_TRUE(frame.status().IsIoError());
}

/// Spinning pays only while the peer can run on another CPU. A thread that
/// may use one CPU (as in a `taskset -c 0` process) waits on an empty ring
/// until a short deadline, and it parks without spinning at all.
TEST(RingBufferTest, AWaiterPinnedToOneCpuParksWithoutSpinning) {
  obs::Counter spins;
  obs::Counter parks;
  bool pinned = false;
  Status read = Status::OK();
  std::thread waiter([&] {
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (::sched_getaffinity(0, sizeof(mask), &mask) != 0) return;
    int cpu = 0;
    while (!CPU_ISSET(cpu, &mask)) ++cpu;
    CPU_ZERO(&mask);
    CPU_SET(cpu, &mask);
    if (::sched_setaffinity(0, sizeof(mask), &mask) != 0) return;
    pinned = true;
    RingStats stats;
    stats.spins = &spins;
    stats.parks = &parks;
    RingHarness h(4096, 128, stats);
    read = h.init_status();
    if (!read.ok()) return;
    const QueryDeadline deadline = QueryDeadline::After(20);
    SpscRingBuffer::WaitOptions w;
    w.deadline = &deadline;
    read = h.ring()->Read(w).status();
  });
  waiter.join();
  ASSERT_TRUE(pinned);
  EXPECT_TRUE(read.IsDeadlineExceeded()) << read;
  EXPECT_EQ(spins.value(), 0u);
  EXPECT_GE(parks.value(), 1u);
}

TEST(RingBufferTest, ReadFailsWithinASliceOnceThePeerChildExits) {
  RingHarness h(4096, 128);
  ASSERT_TRUE(h.init_status().ok());
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) ::_exit(3);
  SpscRingBuffer::WaitOptions w;  // the 30 s silent-peer budget
  w.peer_pid = child;
  w.spin_limit = 16;
  const auto start = std::chrono::steady_clock::now();
  auto frame = h.ring()->Read(w);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(frame.ok());
  EXPECT_TRUE(frame.status().IsIoError());
  EXPECT_NE(frame.status().message().find("exited with status 3"),
            std::string::npos)
      << frame.status();
  EXPECT_LT(elapsed, std::chrono::seconds(2));
  // The exited child was left for its owner to reap.
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  EXPECT_EQ(WEXITSTATUS(status), 3);
}

/// Frames with a stride whose gcd with the capacity is the alignment (8)
/// visit every 8-aligned offset of the buffer, exercising the wrap marker
/// and the implicit end-of-buffer skip at each one.
TEST(RingBufferTest, WraparoundSweepVisitsEveryOffset) {
  auto* wraps =
      obs::MetricsRegistry::Global()->GetCounter("test.ring.sweep.wraps");
  RingStats stats;
  stats.wraps = wraps;
  const uint64_t wraps_before = wraps->value();

  RingHarness h(4096, 1024, stats);
  ASSERT_TRUE(h.init_status().ok());
  const SpscRingBuffer::WaitOptions w = QuickWait();
  // Pad(12 + 28) = 40; gcd(40, 4096) = 8, so 512 frames cycle the start
  // offset through all 512 aligned positions. Run two full cycles.
  const size_t kFrames = 1024;
  for (size_t i = 0; i < kFrames; ++i) {
    std::vector<uint8_t> payload = PatternPayload(28, static_cast<uint32_t>(i));
    ASSERT_TRUE(h.ring()->Write(static_cast<uint32_t>(i), Slice(payload), w)
                    .ok())
        << i;
    auto frame = h.ring()->Read(w);
    ASSERT_TRUE(frame.ok()) << i << ": " << frame.status().ToString();
    EXPECT_EQ(frame->type, static_cast<uint32_t>(i));
    ASSERT_EQ(frame->payload.size(), 28u);
    EXPECT_EQ(0, std::memcmp(frame->payload.data(), payload.data(), 28)) << i;
    h.ring()->Release(frame->end_pos);
  }
  // 1024 frames of stride 40 cover ~40 KB through a 4 KB ring: ≥9 wraps.
  EXPECT_GT(wraps->value() - wraps_before, 8u);
}

/// Property test in the codec_property_test mold: any single bit flipped
/// inside a committed frame's header or payload must surface as Corruption,
/// never as a decoded frame with wrong content. (Padding bytes are excluded:
/// they are outside the CRC and never read.)
TEST(RingBufferTest, SeededBitFlipsInFramesAreRejected) {
  std::mt19937 rng(0xBADC0DE);
  const SpscRingBuffer::WaitOptions w = QuickWait();
  for (int iter = 0; iter < 300; ++iter) {
    RingHarness h(4096, 512, {});
    ASSERT_TRUE(h.init_status().ok());
    const size_t len = 1 + (rng() % 256);
    std::vector<uint8_t> payload = PatternPayload(len, rng());
    ASSERT_TRUE(h.ring()->Write(4, Slice(payload), w).ok());

    // The frame sits at offset 0: u32 len | u32 type | u32 crc | payload.
    // Every byte of these frames lies inside the CRC coverage window
    // (len < kCrcWindow), so any single-bit flip must be detected.
    static_assert(256 + SpscRingBuffer::kHeaderBytes <
                      SpscRingBuffer::kCrcWindow,
                  "bit-flip sweep must stay within CRC coverage");
    const size_t frame_bytes = SpscRingBuffer::kHeaderBytes + len;
    const size_t bit = rng() % (frame_bytes * 8);
    h.data()[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));

    auto frame = h.ring()->Read(w);
    ASSERT_FALSE(frame.ok())
        << "iter " << iter << ": flipped bit " << bit << " of " << frame_bytes
        << "-byte frame decoded anyway";
    EXPECT_TRUE(frame.status().IsCorruption()) << frame.status().ToString();
  }
}

TEST(RingBufferTest, ProducerBlocksOnFullRingUntilRelease) {
  RingHarness h(4096, 1024);
  ASSERT_TRUE(h.init_status().ok());
  const SpscRingBuffer::WaitOptions w = QuickWait();
  std::vector<uint8_t> payload = PatternPayload(1024, 5);
  // Three maximal frames occupy 3 * 1040 = 3120 bytes; a fourth (1040) does
  // not fit in the remaining 976, so the producer must wait for a release.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(h.ring()->Write(static_cast<uint32_t>(i), Slice(payload), w)
                    .ok());
  }
  std::atomic<bool> fourth_done{false};
  std::thread producer([&] {
    ASSERT_TRUE(h.ring()->Write(3, Slice(payload), w).ok());
    fourth_done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // Space genuinely does not exist yet, so the write cannot have finished.
  EXPECT_FALSE(fourth_done.load());

  auto frame = h.ring()->Read(w);
  ASSERT_TRUE(frame.ok());
  h.ring()->Release(frame->end_pos);
  producer.join();
  EXPECT_TRUE(fourth_done.load());
  for (uint32_t expect = 1; expect <= 3; ++expect) {
    auto f = h.ring()->Read(w);
    ASSERT_TRUE(f.ok());
    EXPECT_EQ(f->type, expect);
    h.ring()->Release(f->end_pos);
  }
}

TEST(RingBufferTest, OutOfOrderReleaseNeverRecyclesAnEarlierLiveView) {
  RingHarness h(4096, 1024);
  ASSERT_TRUE(h.init_status().ok());
  const SpscRingBuffer::WaitOptions w = QuickWait();
  std::vector<uint8_t> first = PatternPayload(1024, 1);
  std::vector<uint8_t> second = PatternPayload(1024, 2);
  std::vector<uint8_t> third = PatternPayload(1024, 3);
  ASSERT_TRUE(h.ring()->Write(1, Slice(first), w).ok());
  ASSERT_TRUE(h.ring()->Write(2, Slice(second), w).ok());
  ASSERT_TRUE(h.ring()->Write(3, Slice(third), w).ok());

  auto f1 = h.ring()->Read(w);
  auto f2 = h.ring()->Read(w);
  auto f3 = h.ring()->Read(w);
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f2.ok());
  ASSERT_TRUE(f3.ok());

  // Releasing the later frames first must not advance the shared head:
  // frame 1's bytes are still on loan, so a fourth maximal write (which
  // needs the prefix recycled) must still block.
  h.ring()->Release(f3->end_pos);
  h.ring()->Release(f2->end_pos);
  SpscRingBuffer::WaitOptions quick;
  quick.budget_ns = 50 * 1000000;
  quick.spin_limit = 16;
  std::vector<uint8_t> fourth = PatternPayload(1024, 4);
  EXPECT_TRUE(h.ring()->Write(4, Slice(fourth), quick).IsIoError());
  // Frame 1's view is bitwise intact.
  EXPECT_EQ(0, std::memcmp(f1->payload.data(), first.data(), first.size()));

  // Releasing frame 1 frees the whole released prefix at once.
  h.ring()->Release(f1->end_pos);
  EXPECT_TRUE(h.ring()->Write(4, Slice(fourth), w).ok());
}

/// Two-thread FIFO stress: 20k variable-size frames must arrive in order
/// and bitwise intact. This is the designated TSan target for the ring's
/// lock-free handshake (spin/park/wake under real contention).
TEST(RingBufferStressTest, TwoThreadFifoOrderAndContent) {
  RingHarness h(16384, 2048);
  ASSERT_TRUE(h.init_status().ok());
  constexpr uint32_t kFrames = 20000;
  SpscRingBuffer::WaitOptions w;
  w.budget_ns = 60ll * 1000000000;

  std::thread producer([&] {
    for (uint32_t i = 0; i < kFrames; ++i) {
      const size_t len = (i * 17) % 1500;
      std::vector<uint8_t> payload = PatternPayload(len, i);
      ASSERT_TRUE(h.ring()->Write(i, Slice(payload), w).ok()) << i;
    }
  });

  for (uint32_t i = 0; i < kFrames; ++i) {
    auto frame = h.ring()->Read(w);
    ASSERT_TRUE(frame.ok()) << i << ": " << frame.status().ToString();
    EXPECT_EQ(frame->type, i);  // strict FIFO
    const size_t len = (i * 17) % 1500;
    ASSERT_EQ(frame->payload.size(), len) << i;
    std::vector<uint8_t> expect = PatternPayload(len, i);
    ASSERT_TRUE(std::equal(expect.begin(), expect.end(),
                           frame->payload.data()))
        << i;
    h.ring()->Release(frame->end_pos);
  }
  producer.join();
}

}  // namespace
}  // namespace jaguar
