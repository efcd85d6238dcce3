#ifndef JAGUAR_OBS_METRICS_H_
#define JAGUAR_OBS_METRICS_H_

/// \file metrics.h
/// Process-wide observability layer: lock-free counters and fixed-bucket
/// log-scale histograms behind a named registry.
///
/// The paper's evaluation (Sections 5–6) is built on counting what crosses a
/// language or process boundary — invocations, bytes, callbacks, JIT
/// compilations — and timing how long the crossing takes. This registry makes
/// those quantities first-class in the live engine instead of ad-hoc bench
/// counters: every subsystem registers counters/histograms by dotted name
/// ("udf.jni.invocations", "ipc.shm.messages", ...) and the engine exposes
/// them through `SHOW METRICS`, `DumpText()`/`DumpJson()` and per-query
/// deltas in `QueryResult`.
///
/// Concurrency model: `GetCounter`/`GetHistogram` take a mutex once to
/// register or look up a name and return a pointer that is stable for the
/// process lifetime; hot paths cache the pointer and touch only relaxed
/// atomics afterwards. Counts are monotone, so relaxed ordering is safe —
/// readers may see a slightly stale value, never a torn one.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace jaguar {
namespace obs {

/// A monotonically increasing 64-bit counter. Add/value are wait-free.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// A log2-bucketed histogram of non-negative 64-bit samples (typically
/// nanoseconds or bytes). Bucket `i` covers values whose bit width is `i`,
/// i.e. [2^(i-1), 2^i); bucket 0 holds exactly the value 0. With 64 buckets
/// the full uint64 range is representable, so Record never clamps.
///
/// Percentiles are approximate: `ValueAtPercentile` answers with the upper
/// bound of the bucket containing the requested rank, which is within 2x of
/// the true value — plenty for "is this microseconds or milliseconds" style
/// questions the paper's figures ask.
class Histogram {
 public:
  static constexpr int kNumBuckets = 64;

  void Record(uint64_t value) {
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  uint64_t count() const;
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Mean of all recorded samples (0 if none recorded).
  double Mean() const;
  /// \param p in [0, 100]. Approximate value at the p-th percentile.
  uint64_t ValueAtPercentile(double p) const;

  /// \return Index of the bucket `value` falls into (also its bit width).
  static int BucketIndex(uint64_t value);
  /// \return Inclusive upper bound of bucket `i` (0 for bucket 0).
  static uint64_t BucketUpperBound(int i);

  /// Copies the per-bucket counts (index = bit width of the sample).
  std::vector<uint64_t> BucketCounts() const;

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> sum_{0};
};

/// A point-in-time reading of every registered metric, keyed by name.
/// Counters appear under their own name; a histogram `h` contributes
/// `h.count` and `h.sum` (the pieces whose before/after difference is
/// meaningful — percentiles of a delta are not well-defined).
using MetricsSnapshot = std::map<std::string, uint64_t>;

/// \return `after - before`, keeping only entries that changed (metrics
/// registered after `before` was taken count from zero).
MetricsSnapshot SnapshotDelta(const MetricsSnapshot& before,
                              const MetricsSnapshot& after);

/// Process-wide named registry of counters and histograms.
class MetricsRegistry {
 public:
  /// The process-global registry (what `SHOW METRICS` reads).
  static MetricsRegistry* Global();

  /// Returns the counter registered under `name`, creating it on first use.
  /// The pointer is stable for the registry's lifetime — cache it in hot
  /// paths. A name holds either a counter or a histogram, never both;
  /// requesting the wrong kind returns nullptr (callers treat this as a
  /// programming error).
  Counter* GetCounter(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Reads every metric whose name starts with `prefix` ("" = all).
  MetricsSnapshot Snapshot(const std::string& prefix = "") const;

  /// Reads every registered value into `*values`, one per slot in
  /// registration order: a counter is one slot, a histogram two (its count,
  /// then its sum). Loads only, under the registration mutex: no name is
  /// touched and no map is built.
  void ReadValues(std::vector<uint64_t>* values) const;

  /// `SnapshotDelta` of a `ReadValues` reading and the registry now: an
  /// entry, under its `Snapshot` name, only for each slot whose value moved.
  /// A slot registered after `before` was read counts from zero.
  MetricsSnapshot DeltaSince(const std::vector<uint64_t>& before) const;

  /// One metric per line, sorted by name:
  ///   storage.bufferpool.hits 1043
  ///   udf.jni.latency_ns count=10000 sum=54321000 p50=4095 p99=16383
  std::string DumpText(const std::string& prefix = "") const;

  /// A single JSON object. Counters map to integers; histograms map to an
  /// object {"count":..,"sum":..,"mean":..,"p50":..,"p90":..,"p99":..}.
  std::string DumpJson(const std::string& prefix = "") const;

  /// Human-readable rows for SHOW METRICS: pairs of (name, value-string).
  /// Histograms expand to one row per statistic, like DumpText fields.
  std::vector<std::pair<std::string, std::string>> Rows(
      const std::string& prefix = "") const;

 private:
  /// One value in registration order: a counter, or a histogram's count or
  /// sum. `name` is its `Snapshot` key, built once at registration.
  struct Slot {
    std::string name;
    const Counter* counter = nullptr;
    const Histogram* histogram = nullptr;
    bool sum = false;  ///< which half of `histogram`

    uint64_t Read() const {
      if (counter != nullptr) return counter->value();
      return sum ? histogram->sum() : histogram->count();
    }
  };

  mutable std::mutex mutex_;
  // node-based maps: element addresses are stable across inserts.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::vector<Slot> slots_;
};

/// RAII scope timer: records elapsed nanoseconds into `hist` on destruction.
/// A null histogram makes the timer a no-op, so call sites can keep one
/// unconditional Timer and decide at setup time whether to measure.
class Timer {
 public:
  explicit Timer(Histogram* hist);
  ~Timer();

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

 private:
  Histogram* hist_;
  int64_t start_ns_;
};

}  // namespace obs
}  // namespace jaguar

#endif  // JAGUAR_OBS_METRICS_H_
