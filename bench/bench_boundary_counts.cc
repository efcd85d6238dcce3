// Boundary counts of the Figure 4-8 queries, exact and repeatable.
//
// Runs each figure's query shape, with the designs its bench plots (all six
// registered designs for Figure 5), over 2,000-row Rel1/Rel100/Rel10000
// under three engines: per row (the defaults), batched (vectorized
// execution, batch size 256) and 4 workers (batched, num_workers = 4). For
// each query it prints
//
//   <engine> <shape> rows <count> crc32 <crc of the serialized rows>
//
// followed by one `<engine> <shape> <metric> <value>` line per counter the
// query moved: every udf.* counter except the latency sums, every exec.*
// counter, and jvm.boundary.crossings, ipc.shm.messages, ipc.batch_messages
// and ipc.ring.frames. The ring's byte, wrap, spin, park and wake counters
// are left out because they vary between identical runs, so every line this
// prints repeats: `diff` two runs, or a run of two builds, to prove that a
// change kept results and crossing counts. Exits 1 on any query error.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "common/crc32.h"

namespace jaguar {
namespace bench {
namespace {

constexpr int kRows = 2000;

const std::vector<std::string> kAllDesigns = {"g_cpp", "g_bcpp", "g_icpp",
                                              "g_sfi", "g_jni",  "g_ijni"};

struct Engine {
  std::string name;
  DatabaseOptions options;
};

std::vector<Engine> Engines() {
  DatabaseOptions batched;
  batched.vectorized_execution = true;
  batched.batch_size = 256;
  DatabaseOptions workers = batched;
  workers.num_workers = 4;
  return {{"per_row", DatabaseOptions()},
          {"batched", batched},
          {"workers4", workers}};
}

bool Printed(const std::string& metric) {
  if (StartsWith(metric, "udf.")) return !EndsWith(metric, ".latency_ns.sum");
  return StartsWith(metric, "exec.") || metric == "jvm.boundary.crossings" ||
         metric == "ipc.shm.messages" || metric == "ipc.batch_messages" ||
         metric == "ipc.ring.frames";
}

/// Runs one query and prints its lines; false on a query error.
bool Probe(BenchEnv* env, const std::string& engine, const std::string& shape,
           const std::string& fn, const std::string& rel, int64_t k,
           int64_t indep, int64_t dep, int64_t callbacks) {
  const std::string sql = env->GenericQuery(fn, rel, k, indep, dep, callbacks);
  Result<QueryResult> r = env->db()->Execute(sql);
  if (!r.ok()) {
    std::fprintf(stderr, "%s %s: %s -> %s\n", engine.c_str(), shape.c_str(),
                 sql.c_str(), r.status().ToString().c_str());
    return false;
  }
  uint32_t crc = 0;
  for (const Tuple& row : r->rows) {
    const std::vector<uint8_t> bytes = row.Serialize();
    crc = Crc32(bytes.data(), bytes.size(), crc);
  }
  std::printf("%s %s rows %zu crc32 %08x\n", engine.c_str(), shape.c_str(),
              r->rows.size(), crc);
  for (const auto& [metric, value] : r->metrics_delta) {
    if (!Printed(metric)) continue;
    std::printf("%s %s %s %llu\n", engine.c_str(), shape.c_str(),
                metric.c_str(), static_cast<unsigned long long>(value));
  }
  return true;
}

/// "fig5/g_cpp/Rel1/k=2000": figure, UDF, relation and the swept value.
std::string Shape(const std::string& fig, const std::string& fn,
                  const std::string& rel, const std::string& x) {
  return fig + "/" + fn + "/" + rel + "/" + x;
}

int Run() {
  for (const Engine& engine : Engines()) {
    auto env = BenchEnv::Create(PaperRelations(), kRows, engine.options);
    BenchEnv* e = env.get();
    const std::string& en = engine.name;
    bool ok = true;
    for (const RelationSpec& rel : PaperRelations()) {
      // Figure 4: the no-op UDF, varying the number of invocations.
      for (int64_t k : {0, 1000, 2000}) {
        ok &= Probe(e, en, Shape("fig4", "noop_udf", rel.name,
                                 "k=" + std::to_string(k)),
                    "noop_udf", rel.name, k, 0, 0, 0);
      }
      // Figure 5: one no-op invocation per row, every design.
      for (const std::string& fn : kAllDesigns) {
        ok &= Probe(e, en, Shape("fig5", fn, rel.name, "k=2000"), fn,
                    rel.name, 2000, 0, 0, 0);
      }
    }
    for (int64_t x : {0, 100, 1000}) {
      const std::string xs = "x=" + std::to_string(x);
      // Figure 6: data-independent computation.
      for (const char* fn : {"g_cpp", "g_icpp", "g_jni"}) {
        ok &= Probe(e, en, Shape("fig6", fn, "Rel10000", xs), fn, "Rel10000",
                    500, x, 0, 0);
      }
      // Figure 7: passes over the 10,000-byte array.
      for (const char* fn : {"g_cpp", "g_bcpp", "g_icpp", "g_jni"}) {
        ok &= Probe(e, en, Shape("fig7", fn, "Rel10000", xs), fn, "Rel10000",
                    500, 0, x, 0);
      }
    }
    // Figure 8: callbacks into the server.
    for (int64_t c : {0, 1, 3}) {
      for (const char* fn : {"g_cpp", "g_icpp", "g_jni"}) {
        ok &= Probe(e, en, Shape("fig8", fn, "Rel1", "c=" + std::to_string(c)),
                    fn, "Rel1", 1000, 0, 0, c);
      }
    }
    if (!ok) return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace jaguar

int main() { return jaguar::bench::Run(); }
