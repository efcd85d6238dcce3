#ifndef JAGUAR_COMMON_CLOCK_H_
#define JAGUAR_COMMON_CLOCK_H_

/// \file clock.h
/// Wall-clock stopwatch used by the benchmark harnesses. The paper reports
/// query response time in seconds; our harnesses measure in nanoseconds and
/// print seconds/milliseconds per series.

#include <chrono>
#include <cstdint>

namespace jaguar {

class Stopwatch {
 public:
  Stopwatch() : start_(Now()) {}

  /// \return Elapsed time since construction, in nanoseconds.
  int64_t ElapsedNanos() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Now() - start_)
        .count();
  }
  double ElapsedSeconds() const { return ElapsedNanos() / 1e9; }

 private:
  using TimePoint = std::chrono::steady_clock::time_point;
  static TimePoint Now() { return std::chrono::steady_clock::now(); }
  TimePoint start_;
};

}  // namespace jaguar

#endif  // JAGUAR_COMMON_CLOCK_H_
