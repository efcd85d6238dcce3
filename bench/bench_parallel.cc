// Morsel-driven parallel scaling (beyond the paper's single-threaded 1998
// setup): the Figure-6-style computation query — 10,000 invocations of the
// generic UDF with 2,000 data-independent computations each over Rel10000 —
// run serially and with 4 worker threads, for the designs where worker
// concurrency exercises a real boundary:
//
//   C++   in-process function pointers (baseline; embarrassingly parallel)
//   IC++  isolated processes — each worker leases its own pooled executor
//   JNI   in-process JagVM shared by all workers
//   IJNI  isolated JagVM processes, pooled like IC++
//
// Emits BENCH_parallel.json (machine-readable speedups for CI artifacts, and
// `parallel_queries`, the last 4-worker query's `exec.parallel.queries`).
// Shape checks require >= 2x on IC++ and JNI at 4 workers; they are skipped
// on hosts with fewer than 4 cores, where the speedup is not achievable.

#include <thread>

#include "bench/harness.h"

namespace jaguar {
namespace bench {
namespace {

int Run() {
  const int card = 10000;
  const int64_t indep = 2000;
  const size_t workers = 4;
  const unsigned cores = std::thread::hardware_concurrency();
  PrintHeader(
      "Parallel scaling - morsel-driven execution",
      StringPrintf("10,000 generic-UDF invocations (indep=%lld) on Rel10000; "
                   "1 worker vs %zu workers (host has %u cores)",
                   static_cast<long long>(indep), workers, cores));

  DatabaseOptions serial_options;
  serial_options.vectorized_execution = true;
  serial_options.batch_size = 256;
  serial_options.num_workers = 1;
  DatabaseOptions parallel_options = serial_options;
  parallel_options.num_workers = workers;

  auto serial_env =
      BenchEnv::Create({{"Rel10000", 10000}}, card, serial_options);
  auto parallel_env =
      BenchEnv::Create({{"Rel10000", 10000}}, card, parallel_options);

  const std::vector<std::string> designs = {"C++", "IC++", "JNI", "IJNI"};
  const std::vector<std::string> fns = {"g_cpp", "g_icpp", "g_jni", "g_ijni"};
  const int repeats = 3;

  std::vector<double> serial_t, parallel_t, speedup;
  PrintSeriesHeader("design", {"serial s", "parallel s", "speedup"});
  for (size_t f = 0; f < fns.size(); ++f) {
    double s =
        serial_env->TimeGeneric(fns[f], "Rel10000", card, indep, 0, 0, repeats);
    double p = parallel_env->TimeGeneric(fns[f], "Rel10000", card, indep, 0, 0,
                                         repeats);
    serial_t.push_back(s);
    parallel_t.push_back(p);
    speedup.push_back(p > 0 ? s / p : 0);
    std::printf("%12s %12.6f %12.6f %11.2fx\n", designs[f].c_str(), s, p,
                speedup.back());
  }

  // The parallel path must actually have run (not fallen back to serial).
  const auto& delta = parallel_env->last_metrics_delta();
  auto it = delta.find("exec.parallel.queries");
  const uint64_t parallel_queries = it == delta.end() ? 0 : it->second;

  // Machine-readable artifact for CI trend tracking.
  std::FILE* json = std::fopen("BENCH_parallel.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n  \"cardinality\": %d,\n  \"indep_comps\": %lld,\n"
                 "  \"workers\": %zu,\n  \"host_cores\": %u,\n"
                 "  \"parallel_queries\": %llu,\n  \"designs\": {\n",
                 card, static_cast<long long>(indep), workers, cores,
                 static_cast<unsigned long long>(parallel_queries));
    for (size_t f = 0; f < fns.size(); ++f) {
      std::fprintf(json,
                   "    \"%s\": {\"serial_seconds\": %.6f, "
                   "\"parallel_seconds\": %.6f, \"speedup\": %.3f}%s\n",
                   designs[f].c_str(), serial_t[f], parallel_t[f], speedup[f],
                   f + 1 < fns.size() ? "," : "");
    }
    std::fprintf(json, "  }\n}\n");
    std::fclose(json);
    std::printf("\nwrote BENCH_parallel.json\n");
  }

  std::printf("\nShape checks:\n");
  bool ok = true;
  ok &= ShapeCheck(parallel_queries > 0,
                   "queries took the morsel-driven parallel path");
  if (cores < workers) {
    std::printf("  [SKIP] speedup checks need >= %zu cores (host has %u)\n",
                workers, cores);
    return ok ? 0 : 1;
  }
  ok &= ShapeCheck(speedup[1] >= 2.0,
                   StringPrintf("IC++ 4-worker speedup >= 2x (got %.2fx): "
                                "pooled executors cross concurrently",
                                speedup[1]));
  ok &= ShapeCheck(speedup[2] >= 2.0,
                   StringPrintf("JNI 4-worker speedup >= 2x (got %.2fx): "
                                "workers share one JagVM",
                                speedup[2]));
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace jaguar

int main() { return jaguar::bench::Run(); }
