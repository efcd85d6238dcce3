#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <limits>

#include "common/clock.h"
#include "common/string_util.h"

namespace jaguar {
namespace obs {

namespace {

bool HasPrefix(const std::string& name, const std::string& prefix) {
  return prefix.empty() || StartsWith(name, prefix);
}

}  // namespace

int Histogram::BucketIndex(uint64_t value) {
  int width = std::bit_width(value);  // 0 for value == 0
  return width < kNumBuckets ? width : kNumBuckets - 1;
}

uint64_t Histogram::BucketUpperBound(int i) {
  if (i <= 0) return 0;
  if (i >= kNumBuckets - 1) return std::numeric_limits<uint64_t>::max();
  return (uint64_t{1} << i) - 1;
}

uint64_t Histogram::count() const {
  uint64_t total = 0;
  for (const auto& b : buckets_) total += b.load(std::memory_order_relaxed);
  return total;
}

double Histogram::Mean() const {
  uint64_t n = count();
  return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
}

uint64_t Histogram::ValueAtPercentile(double p) const {
  if (p < 0) p = 0;
  if (p > 100) p = 100;
  uint64_t total = count();
  if (total == 0) return 0;
  // Nearest rank, 1-based: ceil(p% of the samples), so p99 of ten samples
  // is the tenth; p=0 maps to the first. Multiplying before dividing keeps
  // an exact rank (p=7 of 100 samples) from rounding up past itself.
  const uint64_t rank = std::clamp<uint64_t>(
      static_cast<uint64_t>(std::ceil(p * static_cast<double>(total) / 100.0)),
      1, total);
  uint64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    if (seen >= rank) return BucketUpperBound(i);
  }
  return BucketUpperBound(kNumBuckets - 1);
}

std::vector<uint64_t> Histogram::BucketCounts() const {
  std::vector<uint64_t> out(kNumBuckets);
  for (int i = 0; i < kNumBuckets; ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

MetricsSnapshot SnapshotDelta(const MetricsSnapshot& before,
                              const MetricsSnapshot& after) {
  MetricsSnapshot delta;
  for (const auto& [name, value] : after) {
    auto it = before.find(name);
    uint64_t base = it == before.end() ? 0 : it->second;
    if (value != base) delta[name] = value - base;
  }
  return delta;
}

MetricsRegistry* MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (histograms_.count(name) != 0) return nullptr;
  std::unique_ptr<Counter>& counter = counters_[name];
  if (counter == nullptr) {
    counter = std::make_unique<Counter>();
    slots_.push_back({name, counter.get()});
  }
  return counter.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (counters_.count(name) != 0) return nullptr;
  std::unique_ptr<Histogram>& hist = histograms_[name];
  if (hist == nullptr) {
    hist = std::make_unique<Histogram>();
    slots_.push_back({name + ".count", nullptr, hist.get(), false});
    slots_.push_back({name + ".sum", nullptr, hist.get(), true});
  }
  return hist.get();
}

MetricsSnapshot MetricsRegistry::Snapshot(const std::string& prefix) const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snap;
  for (const auto& [name, counter] : counters_) {
    if (HasPrefix(name, prefix)) snap[name] = counter->value();
  }
  for (const auto& [name, hist] : histograms_) {
    if (!HasPrefix(name, prefix)) continue;
    snap[name + ".count"] = hist->count();
    snap[name + ".sum"] = hist->sum();
  }
  return snap;
}

void MetricsRegistry::ReadValues(std::vector<uint64_t>* values) const {
  std::lock_guard<std::mutex> lock(mutex_);
  values->resize(slots_.size());
  for (size_t i = 0; i < slots_.size(); ++i) (*values)[i] = slots_[i].Read();
}

MetricsSnapshot MetricsRegistry::DeltaSince(
    const std::vector<uint64_t>& before) const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot delta;
  for (size_t i = 0; i < slots_.size(); ++i) {
    const uint64_t base = i < before.size() ? before[i] : 0;
    const uint64_t value = slots_[i].Read();
    if (value != base) delta.emplace(slots_[i].name, value - base);
  }
  return delta;
}

std::vector<std::pair<std::string, std::string>> MetricsRegistry::Rows(
    const std::string& prefix) const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Merge the two maps into one name-sorted row list.
  std::map<std::string, std::string> rows;
  for (const auto& [name, counter] : counters_) {
    if (!HasPrefix(name, prefix)) continue;
    rows[name] = StringPrintf(
        "%" PRIu64, counter->value());
  }
  for (const auto& [name, hist] : histograms_) {
    if (!HasPrefix(name, prefix)) continue;
    rows[name + ".count"] = StringPrintf("%" PRIu64, hist->count());
    rows[name + ".sum"] = StringPrintf("%" PRIu64, hist->sum());
    rows[name + ".mean"] = StringPrintf("%.1f", hist->Mean());
    rows[name + ".p50"] =
        StringPrintf("%" PRIu64, hist->ValueAtPercentile(50));
    rows[name + ".p99"] =
        StringPrintf("%" PRIu64, hist->ValueAtPercentile(99));
  }
  return {rows.begin(), rows.end()};
}

std::string MetricsRegistry::DumpText(const std::string& prefix) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, std::string> lines;
  for (const auto& [name, counter] : counters_) {
    if (!HasPrefix(name, prefix)) continue;
    lines[name] = StringPrintf("%s %" PRIu64, name.c_str(), counter->value());
  }
  for (const auto& [name, hist] : histograms_) {
    if (!HasPrefix(name, prefix)) continue;
    lines[name] = StringPrintf(
        "%s count=%" PRIu64 " sum=%" PRIu64 " mean=%.1f p50=%" PRIu64
        " p90=%" PRIu64 " p99=%" PRIu64,
        name.c_str(), hist->count(), hist->sum(), hist->Mean(),
        hist->ValueAtPercentile(50), hist->ValueAtPercentile(90),
        hist->ValueAtPercentile(99));
  }
  std::string out;
  for (const auto& [name, line] : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

std::string MetricsRegistry::DumpJson(const std::string& prefix) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, std::string> fields;
  for (const auto& [name, counter] : counters_) {
    if (!HasPrefix(name, prefix)) continue;
    fields[name] = StringPrintf("%" PRIu64, counter->value());
  }
  for (const auto& [name, hist] : histograms_) {
    if (!HasPrefix(name, prefix)) continue;
    fields[name] = StringPrintf(
        "{\"count\":%" PRIu64 ",\"sum\":%" PRIu64
        ",\"mean\":%.1f,\"p50\":%" PRIu64 ",\"p90\":%" PRIu64
        ",\"p99\":%" PRIu64 "}",
        hist->count(), hist->sum(), hist->Mean(), hist->ValueAtPercentile(50),
        hist->ValueAtPercentile(90), hist->ValueAtPercentile(99));
  }
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : fields) {
    if (!first) out += ",";
    first = false;
    out += "\"" + name + "\":" + value;
  }
  out += "}";
  return out;
}

Timer::Timer(Histogram* hist) : hist_(hist), start_ns_(0) {
  if (hist_ != nullptr) {
    start_ns_ = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now().time_since_epoch())
                    .count();
  }
}

Timer::~Timer() {
  if (hist_ == nullptr) return;
  int64_t now_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::steady_clock::now().time_since_epoch())
                       .count();
  int64_t elapsed = now_ns - start_ns_;
  hist_->Record(elapsed > 0 ? static_cast<uint64_t>(elapsed) : 0);
}

}  // namespace obs
}  // namespace jaguar
