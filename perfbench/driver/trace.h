#ifndef PERFBENCH_DRIVER_TRACE_H_
#define PERFBENCH_DRIVER_TRACE_H_

/// \file trace.h
/// In-memory spans around the benchmark's own calls into the engine's
/// layers. Spans are kept until the run ends and then written as JSON
/// lines.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  int64_t start_ns = 0;  ///< Since the recorder was created.
  int64_t end_ns = 0;
  int parent = -1;       ///< Index of the enclosing span; -1 for a root.
  int64_t stmt = -1;     ///< Statement index; -1 outside the statement list.
};

class SpanRecorder {
 public:
  SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

  /// Opens a span; returns its id.
  int Begin(std::string name, int parent = -1, int64_t stmt = -1) {
    spans_.push_back({std::move(name), Now(), 0, parent, stmt});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Closes span `id` and returns its duration in seconds.
  double End(int id) {
    spans_[id].end_ns = Now();
    return (spans_[id].end_ns - spans_[id].start_ns) * 1e-9;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes one JSON object per span. Returns false on an I/O error.
  bool WriteJsonLines(const std::string& path) const;

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_TRACE_H_
