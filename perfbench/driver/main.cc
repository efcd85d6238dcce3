/// perfbench_driver: runs one workload of the jaguar benchmark and prints
/// its metrics as the last line of standard output.
///
///   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
///                    [--work-dir <dir>] [--out-dir <dir>] [--git-sha <sha>]
///   perfbench_driver --list-metrics

#include <cstdio>
#include <cstdlib>
#include <string>

#include "runner.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>] "
               "[--out-dir <dir>] [--git-sha <sha>]\n"
               "       perfbench_driver --list-metrics\n");
  return 2;
}

bool ParseInt(const char* text, long long lo, long long hi, long long* out) {
  char* end = nullptr;
  *out = std::strtoll(text, &end, 10);
  return end != text && *end == '\0' && *out >= lo && *out <= hi;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-metrics") {
      for (const auto& [name, unit] : perfbench::EndToEndCatalog()) {
        std::printf("end_to_end %s %s\n", name.c_str(), unit.c_str());
      }
      for (const auto& [name, unit] : perfbench::PerLayerCatalog()) {
        std::printf("per_layer %s %s\n", name.c_str(), unit.c_str());
      }
      return 0;
    }
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    long long n = 0;
    if (arg == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      if (!ParseInt(value, 0, (1LL << 62), &n)) return Usage();
      config.seed = static_cast<uint64_t>(n);
    } else if (arg == "--seconds") {
      if (!ParseInt(value, 1, 3600, &n)) return Usage();
      config.seconds = static_cast<int>(n);
    } else if (arg == "--trace") {
      if (!ParseInt(value, 0, 1, &n)) return Usage();
      config.trace = n == 1;
    } else if (arg == "--work-dir") {
      config.work_dir = value;
    } else if (arg == "--out-dir") {
      config.out_dir = value;
    } else if (arg == "--git-sha") {
      config.git_sha = value;
    } else {
      return Usage();
    }
  }
  if (!have_workload) return Usage();

  perfbench::Report report;
  if (!perfbench::RunBenchmark(config, &report)) return 1;
  std::printf("%s\n", perfbench::ResultJson(report).c_str());
  std::fflush(stdout);
  return 0;
}
