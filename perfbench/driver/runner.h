#ifndef PERFBENCH_DRIVER_RUNNER_H_
#define PERFBENCH_DRIVER_RUNNER_H_

/// \file runner.h
/// Runs one workload: set-up, the closed loop over the fixed statement list,
/// and (traced runs) the per-layer probes.

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "engine/query_result.h"
#include "workload.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Database files live here (created, then removed).
  std::string work_dir = ".bench_build/work";
  /// Result, summary and span files are written here.
  std::string out_dir = ".bench_build/results";
  std::string git_sha = "unknown";
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// Statement outcomes, counted against the number attempted.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> messages;  ///< The first few failures.

  /// One attempted statement; `why` explains a failure.
  void Record(bool ok, const std::string& sql, const std::string& why);
  /// A failure of a statement already counted as attempted.
  void Fail(const std::string& sql, const std::string& why);
};

/// One measured statement.
struct Sample {
  int cls;
  int tier;
  Kind kind;
  double ms;
};

/// Sends one SQL statement to the system under test.
using Executor =
    std::function<jaguar::Result<jaguar::QueryResult>(const std::string&)>;

/// The untraced closed loop over `w.measured`: times each statement and
/// checks each result with the oracle. A statement fails when it errors or
/// its result differs from the expected one.
void RunClosedLoop(const Workload& w, const Executor& exec,
                   std::vector<Sample>* samples, Tally* tally);

/// The run's result as one JSON object with `correct`, `attempted`,
/// `failed` and `metrics` (name → {value, unit}).
std::string ResultJson(const Report& report);

/// (name, unit) of every end-to-end metric, reported by untraced runs.
std::vector<std::pair<std::string, std::string>> EndToEndCatalog();

/// (name, unit) of every per-layer metric, reported by traced runs. A
/// workload reports 0 for a class, table or module it does not exercise.
std::vector<std::pair<std::string, std::string>> PerLayerCatalog();

/// Runs the benchmark. Returns false, with a message on stderr, when it
/// could not run at all (bad workload, failed set-up, unsound percentile
/// placement); statement failures are counted in the report instead.
bool RunBenchmark(const RunConfig& config, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_RUNNER_H_
