#ifndef JAGUAR_COMMON_RING_BUFFER_H_
#define JAGUAR_COMMON_RING_BUFFER_H_

/// \file ring_buffer.h
/// A lock-free single-producer/single-consumer byte ring over a shared-memory
/// region, carrying CRC-framed variable-length records. This is the transport
/// of the isolated-UDF boundary crossing (ipc/channel.h): the producer
/// serializes a frame *directly into* the ring (zero copies), the consumer
/// reads it *in place* and releases it after decoding, and an uncontended
/// crossing costs zero syscalls — the waiter spins briefly and parks on a
/// futex (on non-Linux builds, or when built with JAGUAR_RING_FORCE_SEM_PARK,
/// a process-shared semaphore) only when the peer is genuinely slow.
///
/// Layout: a cache-line-separated `Control` block (head/tail cursors and the
/// parking words) followed by a power-of-two data area. Cursors are monotonic
/// 64-bit byte positions; `pos & (capacity-1)` is the buffer index, and
/// `tail - head` is the occupancy, so full/empty are never ambiguous.
///
/// Frame format, 8-byte aligned:
///
///   u32 len | u32 type | u32 crc | payload[len] | pad to 8
///
/// where crc = CRC32(len_le || type_le || payload[0..min(len, kCrcWindow))).
/// A frame never straddles the end of the buffer: when the remaining room
/// cannot hold the frame the producer emits a wrap marker (len = 0xFFFFFFFF)
/// — or nothing at all if the room cannot even hold a header — and both
/// sides skip to the start. A torn or bit-flipped frame fails the CRC (or
/// the length sanity check) and surfaces as Corruption instead of being
/// decoded as garbage; coverage is bounded at kCrcWindow payload bytes so
/// integrity checking stays O(1) per frame (see the constant's comment).
///
/// Memory ordering (the lost-wakeup argument): publishing and parking use a
/// Dekker-style handshake in which all four critical accesses are seq_cst —
/// producer: tail.store; data_seq.fetch_add; consumer_parked.load
/// consumer: consumer_parked.store; data_seq.load; tail.load; futex_wait
/// If the consumer's final tail load misses the producer's store, the
/// consumer's parked store precedes that store in the single total order, so
/// the producer's parked load observes it and issues the wake. If the wake
/// races the consumer into futex_wait, the kernel revalidates data_seq —
/// which the producer bumped before waking — and returns EAGAIN. The
/// symmetric protocol (space_seq/producer_parked) covers a producer waiting
/// for ring space. Every park is additionally bounded by a 100 ms slice, so
/// the ring degrades to polling rather than hanging even if a peer dies
/// between publish and wake.

#include <sched.h>
#include <semaphore.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>

#if defined(__linux__) && !defined(JAGUAR_RING_FORCE_SEM_PARK)
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>
#define JAGUAR_RING_FUTEX_PARK 1
#endif

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <deque>
#include <new>
#include <thread>
#include <utility>

#include "common/crc32.h"
#include "common/deadline.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/string_util.h"
#include "obs/metrics.h"

namespace jaguar {

/// Optional observability hooks; any pointer may be null. `Counter::Add` is
/// inline, so this header adds no link dependency on the obs library.
struct RingStats {
  obs::Counter* bytes = nullptr;   ///< committed bytes incl. framing + pad
  obs::Counter* frames = nullptr;  ///< frames committed
  obs::Counter* wraps = nullptr;   ///< wrap markers / end-of-buffer skips
  obs::Counter* spins = nullptr;   ///< spin iterations while waiting
  obs::Counter* parks = nullptr;   ///< futex/sem waits (the slow-path syscalls)
  obs::Counter* wakes = nullptr;   ///< wakeups issued to a parked peer
};

class SpscRingBuffer {
 public:
  static constexpr uint64_t kHeaderBytes = 12;
  static constexpr uint32_t kWrapMarker = 0xFFFFFFFFu;
  static constexpr uint64_t kAlign = 8;
  static constexpr uint64_t kMinCapacity = 4096;
  /// Payload bytes covered by the frame CRC (beyond the full header). A
  /// bounded window keeps frame-integrity checking O(1) per frame: a
  /// per-byte checksum over megabyte payloads would cost more than the two
  /// memcpys the zero-copy design eliminates, and the producer and consumer
  /// are a server and the executor it forked, inside one trust domain. The
  /// window still catches what framing CRCs exist to catch —
  /// torn headers, misaligned reads after a wraparound bug, stray scribbles
  /// over a frame's start — because any such fault corrupts the header or
  /// the leading payload bytes.
  static constexpr uint64_t kCrcWindow = 1024;

  /// One variable-length record, viewed in place. The payload slice points
  /// into the shared mapping and stays valid until `Release(end_pos)`.
  struct Frame {
    uint32_t type = 0;
    Slice payload;
    uint64_t end_pos = 0;  ///< release token (the frame's end cursor)
  };

  /// Bounds one blocking wait. `budget_ns` guards against a silent peer;
  /// `deadline` is the query watchdog hook, re-checked every parked slice
  /// (~100 ms). When `peer_pid` names a child of this process, each slice
  /// that ends without progress also checks whether that child has exited,
  /// so a dead peer fails the wait within one slice instead of the budget.
  struct WaitOptions {
    int64_t budget_ns = 30ll * 1000000000;
    const QueryDeadline* deadline = nullptr;
    pid_t peer_pid = 0;
    int spin_limit = 2048;
  };

  /// The shared-memory control block. Producer-written, consumer-written and
  /// parking words sit on separate cache lines so the SPSC hot path never
  /// false-shares. The semaphores exist in every build (layout stability);
  /// they are only posted/waited when futex parking is unavailable.
  struct Control {
    alignas(64) std::atomic<uint64_t> tail;  ///< producer: bytes published
    alignas(64) std::atomic<uint64_t> head;  ///< consumer: bytes released
    alignas(64) std::atomic<uint32_t> data_seq;
    std::atomic<uint32_t> consumer_parked;
    alignas(64) std::atomic<uint32_t> space_seq;
    std::atomic<uint32_t> producer_parked;
    alignas(64) sem_t data_sem;
    sem_t space_sem;
  };

  SpscRingBuffer() = default;

  static constexpr uint64_t Pad(uint64_t n) {
    return (n + (kAlign - 1)) & ~(kAlign - 1);
  }
  static bool IsPow2(uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }
  static uint64_t RoundUpPow2(uint64_t v) {
    uint64_t p = kMinCapacity;
    while (p < v) p <<= 1;
    return p;
  }

  /// Bytes of shared memory one ring needs for `capacity` data bytes.
  static size_t LayoutBytes(uint64_t capacity) {
    return sizeof(Control) + static_cast<size_t>(capacity);
  }

  /// Initializes the control block in `mem` (LayoutBytes(capacity) bytes,
  /// typically inside a MAP_SHARED mapping created before fork) and attaches
  /// this instance to it. `max_payload` is the largest payload Write/Prepare
  /// accepts; the padded frame must fit in half the capacity so two maximal
  /// frames (a pipelined request plus its successor) never deadlock the ring.
  Status Init(void* mem, uint64_t capacity, uint64_t max_payload,
              RingStats stats = {}) {
    if (!IsPow2(capacity) || capacity < kMinCapacity) {
      return InvalidArgument("ring capacity must be a power of two >= 4096");
    }
    if (Pad(kHeaderBytes + max_payload) > capacity / 2) {
      return InvalidArgument(
          "ring max payload must fit in half the ring capacity");
    }
    ctl_ = new (mem) Control();
    ctl_->tail.store(0, std::memory_order_relaxed);
    ctl_->head.store(0, std::memory_order_relaxed);
    ctl_->data_seq.store(0, std::memory_order_relaxed);
    ctl_->consumer_parked.store(0, std::memory_order_relaxed);
    ctl_->space_seq.store(0, std::memory_order_relaxed);
    ctl_->producer_parked.store(0, std::memory_order_relaxed);
    if (::sem_init(&ctl_->data_sem, /*pshared=*/1, 0) != 0 ||
        ::sem_init(&ctl_->space_sem, /*pshared=*/1, 0) != 0) {
      return IoError("sem_init for ring buffer failed");
    }
    data_ = static_cast<uint8_t*>(mem) + sizeof(Control);
    cap_ = capacity;
    mask_ = capacity - 1;
    max_payload_ = max_payload;
    stats_ = stats;
    // Spinning only ever pays when the peer can make progress on another
    // CPU; with one CPU to run on, every spin iteration *delays* the peer,
    // so the waiter parks at once instead. The peer is forked after Init and
    // inherits this thread's CPU mask, so one count serves both sides.
    spin_ = UsableCpus() > 1;
    return Status::OK();
  }

  /// CPUs the calling thread may run on: its affinity mask, which a
  /// `taskset` or a `sched_setaffinity` narrows, not the CPUs online.
  static int UsableCpus() {
#ifdef __linux__
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
      return std::max(1, CPU_COUNT(&set));
    }
#endif
    return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  }

  /// Destroys the process-shared semaphores (creator side only, once the
  /// peer is gone).
  void Destroy() {
    if (ctl_ != nullptr) {
      ::sem_destroy(&ctl_->data_sem);
      ::sem_destroy(&ctl_->space_sem);
      ctl_ = nullptr;
    }
  }

  uint64_t capacity() const { return cap_; }
  uint64_t max_payload() const { return max_payload_; }

  // ---------------------------------------------------------------------
  // Producer side
  // ---------------------------------------------------------------------

  /// Reserves a contiguous region for a frame of up to `max_len` payload
  /// bytes and returns the payload pointer — the caller serializes directly
  /// into shared memory and then calls `Commit` with the actual length.
  /// Blocks (spin, then park) while the ring lacks space.
  Result<uint8_t*> Prepare(size_t max_len, const WaitOptions& w) {
    if (max_len > max_payload_) {
      return InvalidArgument(StringPrintf(
          "ring frame of %zu bytes exceeds max payload %llu", max_len,
          static_cast<unsigned long long>(max_payload_)));
    }
    const uint64_t padded = Pad(kHeaderBytes + max_len);
    const uint64_t pos = ctl_->tail.load(std::memory_order_relaxed);
    const uint64_t idx = pos & mask_;
    const uint64_t room = cap_ - idx;
    uint64_t skip = 0;
    bool marker = false;
    if (room < kHeaderBytes) {
      skip = room;  // too small even for a header; both sides skip implicitly
    } else if (room < padded) {
      marker = true;  // room for a header: emit an explicit wrap marker
      skip = room;
    }
    const uint64_t total = skip + padded;
    JAGUAR_RETURN_IF_ERROR(WaitFor(
        [this, pos, total] {
          return cap_ - (pos - ctl_->head.load(std::memory_order_seq_cst)) >=
                 total;
        },
        &ctl_->space_seq, &ctl_->producer_parked, &ctl_->space_sem, w));
    if (marker) {
      StoreU32(data_ + idx, kWrapMarker);
      StoreU32(data_ + idx + 4, 0);
      StoreU32(data_ + idx + 8, 0);
    }
    if (skip != 0) Bump(stats_.wraps);
    prep_base_ = pos + skip;
    prep_skip_ = skip;
    prep_max_ = max_len;
    prep_live_ = true;
    return data_ + (prep_base_ & mask_) + kHeaderBytes;
  }

  /// Publishes the prepared frame with its actual payload length. The wrap
  /// marker (if any) and the frame become visible to the consumer in one
  /// tail store; a parked consumer is woken.
  Status Commit(uint32_t type, size_t actual_len) {
    if (!prep_live_) return Internal("ring Commit without a Prepare");
    if (actual_len > prep_max_) {
      return Internal("ring Commit exceeds the prepared reservation");
    }
    prep_live_ = false;
    const uint64_t idx = prep_base_ & mask_;
    StoreU32(data_ + idx, static_cast<uint32_t>(actual_len));
    StoreU32(data_ + idx + 4, type);
    StoreU32(data_ + idx + 8,
             FrameCrc(type, data_ + idx + kHeaderBytes, actual_len));
    const uint64_t padded = Pad(kHeaderBytes + actual_len);
    ctl_->tail.store(prep_base_ + padded, std::memory_order_seq_cst);
    ctl_->data_seq.fetch_add(1, std::memory_order_seq_cst);
    if (ctl_->consumer_parked.load(std::memory_order_seq_cst) != 0) {
      Wake(&ctl_->data_seq, &ctl_->data_sem);
    }
    Bump(stats_.frames);
    Bump(stats_.bytes, prep_skip_ + padded);
    return Status::OK();
  }

  /// Drops an unpublished reservation (the tail never moved, so the next
  /// Prepare recomputes from the same position).
  void Abort() { prep_live_ = false; }

  /// Copying convenience: Prepare + memcpy + Commit.
  Status Write(uint32_t type, Slice payload, const WaitOptions& w) {
    JAGUAR_ASSIGN_OR_RETURN(uint8_t* buf, Prepare(payload.size(), w));
    if (!payload.empty()) std::memcpy(buf, payload.data(), payload.size());
    return Commit(type, payload.size());
  }

  // ---------------------------------------------------------------------
  // Consumer side
  // ---------------------------------------------------------------------

  /// Blocks for the next frame and returns it as an in-place view. The
  /// consumer may read ahead (several unreleased frames outstanding); space
  /// is recycled only as the oldest unreleased frame is released, so views
  /// stay valid in FIFO order.
  Result<Frame> Read(const WaitOptions& w) {
    while (true) {
      const uint64_t pos = read_pos_;
      JAGUAR_RETURN_IF_ERROR(WaitFor(
          [this, pos] {
            return ctl_->tail.load(std::memory_order_seq_cst) != pos;
          },
          &ctl_->data_seq, &ctl_->consumer_parked, &ctl_->data_sem, w));
      const uint64_t tail = ctl_->tail.load(std::memory_order_acquire);
      const uint64_t idx = pos & mask_;
      const uint64_t room = cap_ - idx;
      if (room < kHeaderBytes) {  // implicit end-of-buffer skip
        read_pos_ = pos + room;
        continue;
      }
      const uint32_t len = LoadU32(data_ + idx);
      if (len == kWrapMarker) {
        read_pos_ = pos + room;
        continue;
      }
      if (len > max_payload_) {
        return Corruption(StringPrintf(
            "ring frame length %u exceeds max payload %llu", len,
            static_cast<unsigned long long>(max_payload_)));
      }
      const uint64_t padded = Pad(kHeaderBytes + len);
      if (tail - pos < padded) {
        return Corruption("ring frame extends past the published tail");
      }
      const uint32_t type = LoadU32(data_ + idx + 4);
      const uint32_t crc = LoadU32(data_ + idx + 8);
      if (crc != FrameCrc(type, data_ + idx + kHeaderBytes, len)) {
        return Corruption("ring frame CRC mismatch (torn or corrupt frame)");
      }
      Frame f;
      f.type = type;
      f.payload = Slice(data_ + idx + kHeaderBytes, len);
      f.end_pos = pos + padded;
      read_pos_ = f.end_pos;
      pending_.emplace_back(f.end_pos, false);
      return f;
    }
  }

  /// Releases the frame whose `end_pos` token this is. Frames may be
  /// released out of read order; the shared head only advances over the
  /// released prefix, so an earlier still-held view is never recycled.
  void Release(uint64_t end_pos) {
    for (auto& e : pending_) {
      if (e.first == end_pos) {
        e.second = true;
        break;
      }
    }
    uint64_t new_head = 0;
    bool advanced = false;
    while (!pending_.empty() && pending_.front().second) {
      new_head = pending_.front().first;
      pending_.pop_front();
      advanced = true;
    }
    if (!advanced) return;
    ctl_->head.store(new_head, std::memory_order_seq_cst);
    ctl_->space_seq.fetch_add(1, std::memory_order_seq_cst);
    if (ctl_->producer_parked.load(std::memory_order_seq_cst) != 0) {
      Wake(&ctl_->space_seq, &ctl_->space_sem);
    }
  }

 private:
  static void StoreU32(uint8_t* p, uint32_t v) {
    p[0] = static_cast<uint8_t>(v);
    p[1] = static_cast<uint8_t>(v >> 8);
    p[2] = static_cast<uint8_t>(v >> 16);
    p[3] = static_cast<uint8_t>(v >> 24);
  }
  static uint32_t LoadU32(const uint8_t* p) {
    return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
           (static_cast<uint32_t>(p[2]) << 16) |
           (static_cast<uint32_t>(p[3]) << 24);
  }

  static uint32_t FrameCrc(uint32_t type, const uint8_t* payload, size_t len) {
    uint8_t hdr[8];
    StoreU32(hdr, static_cast<uint32_t>(len));
    StoreU32(hdr + 4, type);
    const size_t covered = len < kCrcWindow ? len : kCrcWindow;
    return Crc32(payload, covered, Crc32(hdr, sizeof(hdr)));
  }

  static void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#else
    std::atomic_thread_fence(std::memory_order_seq_cst);
#endif
  }

  void Bump(obs::Counter* c, uint64_t n = 1) {
    if (c != nullptr) c->Add(n);
  }

  /// One bounded park (~100 ms slice) on `seq` staying at `observed`.
  void ParkSlice(std::atomic<uint32_t>* seq, uint32_t observed, sem_t* sem) {
#ifdef JAGUAR_RING_FUTEX_PARK
    (void)sem;
    struct timespec slice = {0, 100 * 1000 * 1000};
    // FUTEX_WAIT (not PRIVATE): the word lives in a MAP_SHARED mapping used
    // across the parent/child process boundary.
    ::syscall(SYS_futex, reinterpret_cast<uint32_t*>(seq), FUTEX_WAIT,
              observed, &slice, nullptr, 0);
#else
    (void)observed;
    struct timespec abs;
    ::clock_gettime(CLOCK_REALTIME, &abs);
    abs.tv_nsec += 100 * 1000 * 1000;
    if (abs.tv_nsec >= 1000000000) {
      abs.tv_nsec -= 1000000000;
      ++abs.tv_sec;
    }
    while (::sem_timedwait(sem, &abs) != 0 && errno == EINTR) {
    }
#endif
  }

  /// IoError once child `pid` has exited. WNOWAIT leaves the child for its
  /// owner to reap; a pid that is no child of ours (already reaped) is gone.
  static Status CheckPeerRunning(pid_t pid) {
    siginfo_t info;
    std::memset(&info, 0, sizeof(info));
    if (::waitid(P_PID, static_cast<id_t>(pid), &info,
                 WEXITED | WNOHANG | WNOWAIT) != 0) {
      if (errno != ECHILD) return Status::OK();  // EINTR: next slice
      return IoError(StringPrintf("ring peer process %d is gone", pid));
    }
    if (info.si_pid == 0) return Status::OK();
    if (info.si_code == CLD_EXITED) {
      return IoError(StringPrintf("ring peer process %d exited with status %d",
                                  pid, info.si_status));
    }
    return IoError(StringPrintf("ring peer process %d was killed by signal %d",
                                pid, info.si_status));
  }

  void Wake(std::atomic<uint32_t>* seq, sem_t* sem) {
#ifdef JAGUAR_RING_FUTEX_PARK
    (void)sem;
    ::syscall(SYS_futex, reinterpret_cast<uint32_t*>(seq), FUTEX_WAKE, 1,
              nullptr, nullptr, 0);
#else
    (void)seq;
    ::sem_post(sem);
#endif
    Bump(stats_.wakes);
  }

  /// Spin-then-park until `ready()` holds, a deadline/budget expires, or a
  /// wait error occurs. `ready` must load the watched cursor with seq_cst
  /// (part of the handshake proof above).
  template <typename Ready>
  Status WaitFor(Ready ready, std::atomic<uint32_t>* seq,
                 std::atomic<uint32_t>* parked, sem_t* sem,
                 const WaitOptions& w) {
    if (ready()) return Status::OK();
    JAGUAR_RETURN_IF_ERROR(CheckDeadline(w.deadline));
    const int spin_limit = spin_ ? w.spin_limit : 0;
    for (int i = 0; i < spin_limit; ++i) {
      CpuRelax();
      if (ready()) {
        Bump(stats_.spins, static_cast<uint64_t>(i) + 1);
        return Status::OK();
      }
    }
    Bump(stats_.spins, static_cast<uint64_t>(spin_limit));
    struct timespec start;
    ::clock_gettime(CLOCK_MONOTONIC, &start);
    while (true) {
      parked->store(1, std::memory_order_seq_cst);
      const uint32_t observed = seq->load(std::memory_order_seq_cst);
      if (ready()) {
        parked->store(0, std::memory_order_seq_cst);
        return Status::OK();
      }
      Bump(stats_.parks);
      ParkSlice(seq, observed, sem);
      parked->store(0, std::memory_order_seq_cst);
      if (ready()) return Status::OK();
      // Between slices: the query watchdog first, then the peer's exit,
      // then the silent-peer budget — each is detected at most one slice
      // late. A park woken by the peer never gets here.
      JAGUAR_RETURN_IF_ERROR(CheckDeadline(w.deadline));
      if (w.peer_pid > 0) JAGUAR_RETURN_IF_ERROR(CheckPeerRunning(w.peer_pid));
      struct timespec now;
      ::clock_gettime(CLOCK_MONOTONIC, &now);
      const int64_t elapsed_ns = (now.tv_sec - start.tv_sec) * 1000000000 +
                                 (now.tv_nsec - start.tv_nsec);
      if (elapsed_ns >= w.budget_ns) {
        return IoError("ring buffer wait timed out (peer dead?)");
      }
    }
  }

  Control* ctl_ = nullptr;
  uint8_t* data_ = nullptr;
  uint64_t cap_ = 0;
  uint64_t mask_ = 0;
  uint64_t max_payload_ = 0;
  RingStats stats_;
  bool spin_ = false;  ///< Waits spin before they park (see `Init`).

  // Producer-local reservation state (each forked process has its own copy;
  // only the producing side of a direction ever touches these).
  uint64_t prep_base_ = 0;
  uint64_t prep_skip_ = 0;
  size_t prep_max_ = 0;
  bool prep_live_ = false;

  // Consumer-local read cursor and outstanding (end_pos, released) frames.
  uint64_t read_pos_ = 0;
  std::deque<std::pair<uint64_t, bool>> pending_;
};

}  // namespace jaguar

#endif  // JAGUAR_COMMON_RING_BUFFER_H_
