#include "runner.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>

#include "common/bytes.h"
#include "engine/database.h"
#include "index/btree.h"
#include "jjc/jjc.h"
#include "jvm/verifier.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "sql/parser.h"
#include "stats.h"
#include "storage/table_heap.h"
#include "trace.h"
#include "types/tuple.h"
#include "udf/generic_udf.h"
#include "workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace fs = std::filesystem;
using jaguar::Database;
using jaguar::QueryResult;
using jaguar::Result;
using jaguar::Status;
using jaguar::TypeId;
using jaguar::Value;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The six designs, as UDF names and as metric keys.
const char* const kDesignFns[6] = {"g_cpp", "g_bcpp", "g_sfi",
                                   "g_jni", "g_icpp", "g_ijni"};
const char* const kDesignKeys[6] = {"cpp", "bcpp", "sfi_cpp",
                                    "jni", "icpp", "ijni"};

uint64_t Get(const jaguar::obs::MetricsSnapshot& m, const std::string& name) {
  auto it = m.find(name);
  return it == m.end() ? 0 : it->second;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// One set-up database, embedded or behind an in-process server.

struct SetupTimes {
  double load_s = 0;      ///< Open + schema + data through SQL.
  double register_s = 0;  ///< jjc::Compile + verify + RegisterUdf.
  double warmup_s = 0;    ///< Server start (wire) + one pass over the shapes.
  double total_s = 0;
};

bool Verdict(const Statement& st, const Result<QueryResult>& r,
             std::string* why) {
  if (!r.ok()) {
    *why = r.status().ToString();
    return false;
  }
  return CheckResult(*st.expect, *r, why);
}

class Instance {
 public:
  Instance() = default;
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  ~Instance() {
    client_.reset();
    if (server_) server_->Stop();
    server_.reset();
    db_.reset();
    std::error_code ec;
    if (!dir_.empty()) fs::remove_all(dir_, ec);
  }

  /// Opens a fresh database under `dir`, loads it, registers the UDFs and
  /// runs the warm-up pass (`wire` starts a server and a client first).
  /// Warm-up statements that fail are counted in `tally` as failures.
  static std::unique_ptr<Instance> Create(const Workload& w,
                                          const std::string& dir, bool wire,
                                          SetupTimes* times, Tally* tally) {
    auto inst = std::make_unique<Instance>();
    inst->dir_ = dir;
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir, ec);
    inst->path_ = (fs::path(dir) / "bench.db").string();

    const Clock::time_point t0 = Clock::now();
    Result<std::unique_ptr<Database>> db = Database::Open(inst->path_, w.options);
    if (!db.ok()) {
      std::fprintf(stderr, "open failed: %s\n", db.status().ToString().c_str());
      return nullptr;
    }
    inst->db_ = std::move(db).value();
    for (const std::string& sql : w.load_sql) {
      Result<QueryResult> r = inst->db_->Execute(sql);
      if (!r.ok()) {
        std::fprintf(stderr, "load failed: %s :: %.120s\n",
                     r.status().ToString().c_str(), sql.c_str());
        return nullptr;
      }
    }
    const Clock::time_point t1 = Clock::now();
    if (!inst->RegisterDesigns()) return nullptr;
    const Clock::time_point t2 = Clock::now();
    if (wire) {
      inst->server_ = std::make_unique<jaguar::net::Server>(inst->db_.get());
      Status s = inst->server_->Start(0);
      if (!s.ok()) {
        std::fprintf(stderr, "server start failed: %s\n", s.ToString().c_str());
        return nullptr;
      }
      auto client = jaguar::net::Client::Connect("127.0.0.1",
                                                 inst->server_->port());
      if (!client.ok()) {
        std::fprintf(stderr, "connect failed: %s\n",
                     client.status().ToString().c_str());
        return nullptr;
      }
      inst->client_ = std::move(client).value();
    }
    for (const Statement& st : w.warmup) {
      Result<QueryResult> r = inst->Execute(st.sql);
      std::string why;
      if (!Verdict(st, r, &why)) tally->Fail(st.sql, "warm-up: " + why);
    }
    const Clock::time_point t3 = Clock::now();
    times->load_s = std::chrono::duration<double>(t1 - t0).count();
    times->register_s = std::chrono::duration<double>(t2 - t1).count();
    times->warmup_s = std::chrono::duration<double>(t3 - t2).count();
    times->total_s = std::chrono::duration<double>(t3 - t0).count();
    return inst;
  }

  Result<QueryResult> Execute(const std::string& sql) {
    return client_ ? client_->Execute(sql) : db_->Execute(sql);
  }

  Database* db() { return db_.get(); }
  jaguar::net::Client* client() { return client_.get(); }
  const std::string& path() const { return path_; }

 private:
  bool RegisterDesigns() {
    const std::vector<TypeId> sig = {TypeId::kBytes, TypeId::kInt,
                                     TypeId::kInt, TypeId::kInt};
    Result<jaguar::jvm::ClassFile> cf =
        jaguar::jjc::Compile(jaguar::GenericUdfJJavaSource());
    if (!cf.ok()) {
      std::fprintf(stderr, "jjc failed: %s\n", cf.status().ToString().c_str());
      return false;
    }
    Result<jaguar::jvm::VerifiedClass> verified = jaguar::jvm::Verify(*cf);
    if (!verified.ok()) {
      std::fprintf(stderr, "verify failed: %s\n",
                   verified.status().ToString().c_str());
      return false;
    }
    const std::vector<uint8_t> payload = cf->Serialize();
    using jaguar::UdfLanguage;
    const jaguar::UdfInfo infos[6] = {
        {"g_cpp", UdfLanguage::kNative, TypeId::kInt, sig, "generic_udf", {}},
        {"g_bcpp", UdfLanguage::kNativeChecked, TypeId::kInt, sig,
         "generic_udf_checked", {}},
        {"g_sfi", UdfLanguage::kNativeSfi, TypeId::kInt, sig, "generic_udf", {}},
        {"g_jni", UdfLanguage::kJJava, TypeId::kInt, sig, "GenericUdf.run",
         payload},
        {"g_icpp", UdfLanguage::kNativeIsolated, TypeId::kInt, sig,
         "generic_udf", {}},
        {"g_ijni", UdfLanguage::kJJavaIsolated, TypeId::kInt, sig,
         "GenericUdf.run", payload},
    };
    for (const jaguar::UdfInfo& info : infos) {
      Status s = db_->RegisterUdf(info);
      if (!s.ok()) {
        std::fprintf(stderr, "register %s failed: %s\n", info.name.c_str(),
                     s.ToString().c_str());
        return false;
      }
    }
    return true;
  }

  std::string dir_;
  std::string path_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<jaguar::net::Server> server_;
  std::unique_ptr<jaguar::net::Client> client_;
};

// ---------------------------------------------------------------------------
// The closed loop.

/// Per-class sums of the counts each statement's metrics_delta carries.
struct ClassCounts {
  uint64_t statements = 0;
  double rows = 0;  ///< Rows returned (SELECT) or affected (writes).
  double examined = 0;
  double udf_calls = 0;
  double pages = 0;
  double wal_bytes = 0;
  std::vector<double> engine_us;
};

/// Workload-wide sums over the traced run.
struct RunCounts {
  std::vector<ClassCounts> by_class;
  double statements = 0, writes = 0;
  double hits = 0, misses = 0, io_waits = 0;
  double ra_hits = 0, ra_issued = 0;
  double parallel_stmts = 0, morsels = 0;
  double udf_calls = 0, jvm_crossings = 0;
  double isolated_calls[2] = {0, 0};  ///< icpp, ijni
  double parks = 0, spins = 0, frames = 0, ring_bytes = 0;
  double fsyncs = 0, checkpoints = 0;
  double parse_us = 0, encode_us = 0, decode_us = 0, result_bytes = 0;
};

double UdfCalls(const jaguar::obs::MetricsSnapshot& d) {
  double calls = 0;
  for (const char* key : kDesignKeys) {
    calls += Get(d, std::string("udf.") + key + ".invocations");
  }
  return calls;
}

void Accumulate(const Workload& w, const Statement& st, const QueryResult& r,
                RunCounts* c) {
  const jaguar::obs::MetricsSnapshot& d = r.metrics_delta;
  ClassCounts& k = c->by_class[st.cls];
  const bool write = w.classes[st.cls].kind == Kind::kWrite;
  ++k.statements;
  k.rows += write ? r.rows_affected : r.rows.size();
  // Tuples entering the plan: serial scans and index probes count their
  // own; a parallel plan exposes only its output (scans, after LIMIT) and
  // its aggregators' input.
  const bool parallel = Get(d, "exec.parallel.queries") > 0;
  k.examined += Get(d, "exec.seqscan.tuples") + Get(d, "exec.index.lookups") +
                (parallel ? Get(d, "exec.parallel.tuples") +
                                Get(d, "exec.agg.rows")
                          : 0);
  const double calls = UdfCalls(d);
  k.udf_calls += calls;
  const double hits = Get(d, "storage.bufferpool.hits");
  const double misses = Get(d, "storage.bufferpool.misses");
  k.pages += hits + misses;
  k.wal_bytes += Get(d, "wal.bytes");

  c->statements += 1;
  c->writes += write ? 1 : 0;
  c->hits += hits;
  c->misses += misses;
  c->io_waits += Get(d, "storage.bufferpool.io_waits");
  c->ra_hits += Get(d, "storage.bufferpool.readahead.hits");
  c->ra_issued += Get(d, "storage.bufferpool.readahead.issued");
  c->parallel_stmts += parallel ? 1 : 0;
  c->morsels += Get(d, "exec.parallel.morsels");
  c->udf_calls += calls;
  c->jvm_crossings += Get(d, "jvm.boundary.crossings");
  c->isolated_calls[0] += Get(d, "udf.icpp.invocations");
  c->isolated_calls[1] += Get(d, "udf.ijni.invocations");
  c->parks += Get(d, "ipc.ring.parks");
  c->spins += Get(d, "ipc.ring.spins");
  c->frames += Get(d, "ipc.ring.frames");
  c->ring_bytes += Get(d, "ipc.ring.bytes");
  c->fsyncs += Get(d, "wal.fsyncs");
  c->checkpoints += Get(d, "wal.checkpoints");
}

}  // namespace

void Tally::Record(bool ok, const std::string& sql, const std::string& why) {
  ++attempted;
  if (!ok) Fail(sql, why);
}

void Tally::Fail(const std::string& sql, const std::string& why) {
  ++failed;
  if (messages.size() < 5) messages.push_back(why + " :: " + sql.substr(0, 160));
}

void RunClosedLoop(const Workload& w, const Executor& exec,
                   std::vector<Sample>* samples, Tally* tally) {
  for (const Statement& st : w.measured) {
    const Clock::time_point t0 = Clock::now();
    Result<QueryResult> r = exec(st.sql);
    const double ms = SecondsSince(t0) * 1e3;
    samples->push_back({st.cls, st.tier, w.classes[st.cls].kind, ms});
    std::string why;
    tally->Record(Verdict(st, r, &why), st.sql, why);
  }
}

namespace {

Executor ExecutorOf(Instance* inst) {
  return [inst](const std::string& sql) { return inst->Execute(sql); };
}

/// Traced closed loop: the same list with spans around every layer call.
void RunTraced(const Workload& w, Instance* inst, SpanRecorder* rec,
               RunCounts* counts, std::vector<double>* stmt_s, Tally* tally) {
  counts->by_class.resize(w.classes.size());
  for (size_t i = 0; i < w.measured.size(); ++i) {
    const Statement& st = w.measured[i];
    const int64_t id = static_cast<int64_t>(i);
    const int root = rec->Begin("statement", -1, id);

    int span = rec->Begin("sql.parse", root, id);
    auto parsed = jaguar::sql::Parse(st.sql);
    counts->parse_us += rec->End(span) * 1e6;
    (void)parsed;

    span = rec->Begin(w.wire ? "net.execute" : "engine.execute", root, id);
    Result<QueryResult> r = inst->Execute(st.sql);
    const double s = rec->End(span);
    stmt_s->push_back(s);
    if (!w.wire) counts->by_class[st.cls].engine_us.push_back(s * 1e6);

    std::string why;
    const bool ok = Verdict(st, r, &why);
    if (r.ok()) {
      span = rec->Begin("net.encode", root, id);
      jaguar::BufferWriter writer;
      jaguar::net::EncodeQueryResult(*r, &writer);
      counts->encode_us += rec->End(span) * 1e6;
      counts->result_bytes += writer.size();
      span = rec->Begin("net.decode", root, id);
      jaguar::BufferReader reader(writer.AsSlice());
      auto decoded = jaguar::net::DecodeQueryResult(&reader);
      counts->decode_us += rec->End(span) * 1e6;
      (void)decoded;
      Accumulate(w, st, *r, counts);
    }
    tally->Record(ok, st.sql, why);
    rec->End(root);
  }
}

/// The list once more, embedded, on a wire workload's own fresh instance:
/// the engine's execute time per class without the wire.
void RunEmbedded(const Workload& w, Instance* inst, SpanRecorder* rec,
                 RunCounts* counts, Tally* tally) {
  for (size_t i = 0; i < w.measured.size(); ++i) {
    const Statement& st = w.measured[i];
    const int span = rec->Begin("engine.execute", -1, static_cast<int64_t>(i));
    Result<QueryResult> r = inst->Execute(st.sql);
    counts->by_class[st.cls].engine_us.push_back(rec->End(span) * 1e6);
    std::string why;
    if (!Verdict(st, r, &why)) tally->Fail(st.sql, "embedded: " + why);
  }
}

// ---------------------------------------------------------------------------
// Per-layer probes, timed from outside on the traced instance after its run.

struct UdfProbe {
  double invoke_ns = 0;
  double batch_row_ns = 0;
  double callback_ns = 0;
};

/// Seconds of each of `reps` runs of `fn`.
std::vector<double> Time(int reps, const std::function<void()>& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    fn();
    t.push_back(SecondsSince(t0));
  }
  return t;
}

/// Fastest of `reps` runs of `fn`: a microbenchmark's cost without the
/// scheduler noise of a shared host.
double TimeMin(int reps, const std::function<void()>& fn) {
  const std::vector<double> t = Time(reps, fn);
  return *std::min_element(t.begin(), t.end());
}

/// Reads every record of `table` through TableHeap::Scan, keeping the first
/// `limit`; reports the scan's time and buffer-pool fetches per record.
Result<std::vector<std::vector<uint8_t>>> ScanRecords(
    Database* db, const std::string& table, size_t limit, double* ns_per_row,
    double* pages_per_row) {
  JAGUAR_ASSIGN_OR_RETURN(const jaguar::TableInfo* info,
                          db->catalog()->GetTable(table));
  jaguar::obs::MetricsRegistry* reg = jaguar::obs::MetricsRegistry::Global();
  auto pages = [&] {
    const jaguar::obs::MetricsSnapshot m = reg->Snapshot("storage.bufferpool.");
    return static_cast<double>(Get(m, "storage.bufferpool.hits") +
                               Get(m, "storage.bufferpool.misses"));
  };
  const double pages_before = pages();
  std::vector<std::vector<uint8_t>> kept;
  jaguar::TableHeap heap(db->storage(), info->first_page);
  jaguar::TableHeap::Iterator it = heap.Scan();
  uint64_t n = 0;
  const Clock::time_point t0 = Clock::now();
  while (true) {
    JAGUAR_ASSIGN_OR_RETURN(auto next, it.Next());
    if (!next.has_value()) break;
    if (kept.size() < limit) kept.push_back(std::move(next->second));
    ++n;
  }
  const double s = SecondsSince(t0);
  *ns_per_row = Ratio(s * 1e9, n);
  *pages_per_row = Ratio(pages() - pages_before, n);
  return kept;
}

bool ProbeUdfs(const Workload& w, Database* db, std::vector<UdfProbe>* out,
               std::string* why) {
  // Argument rows: the workload's BYTEARRAY column, first 256 records.
  double unused_ns = 0, unused_pages = 0;
  auto records = ScanRecords(db, w.probe_table, 256, &unused_ns, &unused_pages);
  auto info = db->catalog()->GetTable(w.probe_table);
  if (!records.ok() || records->empty() || !info.ok()) {
    *why = "no probe rows";
    return false;
  }
  auto col = (*info)->schema.IndexOf(w.probe_column);
  if (!col.ok()) {
    *why = "no probe column";
    return false;
  }
  std::vector<std::vector<uint8_t>> bytes;
  for (const auto& rec : *records) {
    auto t = jaguar::Tuple::Deserialize(jaguar::Slice(rec));
    if (!t.ok()) {
      *why = "probe row decode failed";
      return false;
    }
    bytes.push_back(t->value(*col).AsBytes());
  }
  auto rows_for = [&](int64_t callbacks) {
    std::vector<std::vector<Value>> rows;
    for (const auto& b : bytes) {
      rows.push_back({Value::Bytes(b), Value::Int(0), Value::Int(0),
                      Value::Int(callbacks)});
    }
    return rows;
  };
  const std::vector<std::vector<Value>> plain = rows_for(0);
  const std::vector<std::vector<Value>> calling = rows_for(1);
  jaguar::UdfManager* manager = db->udf_manager();
  out->assign(6, UdfProbe());
  bool ok = true;
  for (int d = 0; d < 6; ++d) {
    auto invoke_all = [&](const std::vector<std::vector<Value>>& rows) {
      jaguar::UdfContext ctx(db);
      for (const auto& args : rows) {
        TypeId rt;
        std::vector<TypeId> types;
        auto runner = manager->Resolve(kDesignFns[d], &rt, &types);
        if (!runner.ok()) {
          ok = false;
          continue;
        }
        auto v = (*runner)->Invoke(args, &ctx);
        // Every row's value is the C++ design's: sum_0_to(c) = 0.
        if (!v.ok() || v->AsInt() != 0) ok = false;
      }
    };
    const double n = static_cast<double>(plain.size());
    invoke_all(plain);  // warm the runner and its executor
    invoke_all(calling);
    const double t_plain = TimeMin(5, [&] { invoke_all(plain); });
    const double t_calling = TimeMin(5, [&] { invoke_all(calling); });
    const double t_batch = TimeMin(5, [&] {
      jaguar::UdfContext ctx(db);
      TypeId rt;
      std::vector<TypeId> types;
      auto runner = manager->Resolve(kDesignFns[d], &rt, &types);
      if (!runner.ok()) {
        ok = false;
        return;
      }
      auto v = (*runner)->InvokeBatch(plain, &ctx);
      if (!v.ok() || v->size() != plain.size()) ok = false;
    });
    (*out)[d].invoke_ns = t_plain * 1e9 / n;
    (*out)[d].callback_ns = (t_calling - t_plain) * 1e9 / n;
    (*out)[d].batch_row_ns = t_batch * 1e9 / n;
  }
  if (!ok) *why = "a UDF probe returned an error or a wrong value";
  return ok;
}

// ---------------------------------------------------------------------------
// Reporting.

/// The list's statements over the time they took: the sum of their
/// latencies, which leaves out the oracle's checks between them.
double Throughput(const std::vector<Sample>& samples) {
  double seconds = 0;
  for (const Sample& s : samples) seconds += s.ms * 1e-3;
  return Ratio(samples.size(), seconds);
}

/// Guest CPU counters from /proc/stat: {steal, busy} ticks, where busy is
/// every tick but idle and iowait (zeros when unreadable). On a virtual
/// machine, steal is time a vCPU was ready to run while the hypervisor ran
/// someone else; it slows every metric and is recorded with each result.
std::pair<double, double> CpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  // user nice system idle iowait irq softirq steal
  double v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  in >> cpu;
  for (double& x : v) in >> x;
  if (!in || cpu != "cpu") return {0, 0};
  double busy = 0;
  for (double x : v) busy += x;
  return {v[7], busy - v[3] - v[4]};
}

/// Share of the guest's busy CPU time that was stolen between two CpuTicks
/// readings.
double StealShare(std::pair<double, double> before,
                  std::pair<double, double> after) {
  return Ratio(after.first - before.first, after.second - before.second);
}

/// Resident-set high-water mark of this process, in MB.
double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // ru_maxrss is in KB on Linux
}

void AddPercentiles(const std::vector<Sample>& samples, Kind kind,
                    const std::string& prefix, std::vector<Metric>* out,
                    std::string* counts) {
  std::vector<double> ms;
  for (const Sample& s : samples) {
    if (s.kind == kind) ms.push_back(s.ms);
  }
  for (double p : {50.0, 90.0}) {
    const Percentile pc = NearestRank(ms, p);
    const std::string name = prefix + "_p" + std::to_string(int(p)) + "_ms";
    out->push_back({name, "ms", pc.value});
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s%s=%.4f (n=%zu, beyond=%zu)",
                  counts->empty() ? "" : " ", name.c_str(), pc.value,
                  pc.samples, pc.beyond);
    *counts += buf;
  }
}

std::string MetaJson(const RunConfig& c) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %d, "
                "\"trace\": %d, \"git_sha\": \"%s\", \"build_type\": \"%s\", "
                "\"nproc\": %ld}",
                JsonEscape(c.workload).c_str(),
                static_cast<unsigned long long>(c.seed), c.seconds,
                c.trace ? 1 : 0, JsonEscape(c.git_sha).c_str(),
                PERFBENCH_BUILD_TYPE, sysconf(_SC_NPROCESSORS_ONLN));
  return buf;
}

void WriteResultFile(const RunConfig& c, const Report& report,
                     const std::string& notes, const std::string& path) {
  std::ofstream out(path);
  out << "{\"meta\": " << MetaJson(c) << ", \"notes\": \"" << JsonEscape(notes)
      << "\", \"result\": " << ResultJson(report) << "}\n";
}

/// Every workload's classes, tables and designs, for the per-layer names.
std::vector<Workload> AllWorkloadShapes() {
  std::vector<Workload> all;
  for (const std::string& name : WorkloadNames()) {
    Workload w;
    MakeWorkload(name, 1, 0, &w);
    all.push_back(std::move(w));
  }
  return all;
}

}  // namespace

std::string ResultJson(const Report& report) {
  std::string metrics;
  for (const Metric& m : report.metrics) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name.c_str(), m.value,
                  m.unit.c_str());
    metrics += buf;
  }
  char head[160];
  std::snprintf(head, sizeof(head),
                "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
                report.correct ? "true" : "false",
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed));
  return head + ("\"metrics\": {" + metrics + "}}");
}

std::vector<std::pair<std::string, std::string>> EndToEndCatalog() {
  return {{"setup_s", "s"},          {"throughput_sps", "stmt/s"},
          {"read_p50_ms", "ms"},     {"read_p90_ms", "ms"},
          {"write_p50_ms", "ms"},    {"write_p90_ms", "ms"},
          {"peak_rss_mb", "MB"}};
}

std::vector<std::pair<std::string, std::string>> PerLayerCatalog() {
  std::vector<std::pair<std::string, std::string>> out = {
      {"net.ping_us", "us"},
      {"net.encode_us", "us"},
      {"net.decode_us", "us"},
      {"net.result_bytes", "B"},
      {"sql.parse_us", "us"},
      {"obs.snapshot_us", "us"},
      {"obs.metrics_registered", "count"},
      {"index.lookup_us", "us"},
      {"exec.parallel_share", "ratio"},
      {"exec.morsels_per_stmt", "count"},
      {"storage.hit_ratio", "ratio"},
      {"storage.io_waits_per_stmt", "count"},
      {"storage.readahead_hit_ratio", "ratio"},
      {"storage.file_bytes_per_user_byte", "ratio"},
      {"udf.calls_per_stmt", "count"},
      {"udf.isolated_share", "ratio"},
      {"jvm.crossings_per_stmt", "count"},
      {"ipc.parks_per_frame", "ratio"},
      {"ipc.spins_per_frame", "ratio"},
      {"ipc.bytes_per_row", "B"},
      {"wal.fsyncs_per_write", "count"},
      {"wal.checkpoints", "count"},
      {"setup.load_s", "s"},
      {"setup.register_s", "s"},
      {"setup.warmup_s", "s"},
      {"trace.overhead", "ratio"},
  };
  for (const Workload& w : AllWorkloadShapes()) {
    for (const ClassSpec& c : w.classes) {
      out.push_back({"engine.execute_us." + c.name, "us"});
      if (!c.detail) continue;
      out.push_back({"storage.pages_per_stmt." + c.name, "pages"});
      if (c.examines) out.push_back({"exec.rows_examined_per_row." + c.name, "ratio"});
      if (c.calls_udf) out.push_back({"exec.udf_calls_per_row." + c.name, "ratio"});
      if (c.kind == Kind::kWrite) {
        out.push_back({"wal.bytes_per_write." + c.name, "B"});
      }
    }
    for (const TableRef& t : w.tables) {
      out.push_back({"storage.scan_ns_per_row." + t.metric_name, "ns"});
      out.push_back({"storage.pages_per_row." + t.metric_name, "pages"});
      out.push_back({"types.decode_ns_per_row." + t.metric_name, "ns"});
    }
  }
  for (const char* key : kDesignKeys) {
    out.push_back({std::string("udf.invoke_ns.") + key, "ns"});
    out.push_back({std::string("udf.batch_row_ns.") + key, "ns"});
    out.push_back({std::string("udf.callback_ns.") + key, "ns"});
  }
  return out;
}

namespace {

/// Removes a directory tree when it goes out of scope.
struct RemoveOnExit {
  std::string path;
  ~RemoveOnExit() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

/// A measured pass that lost more than this share of its busy CPU time to
/// the hypervisor is marked `contended` in the result file: its timings are
/// unresolved. On a 4-vCPU guest, runs below it agreed with each other and
/// runs above it were up to a third slower. Contention comes in episodes
/// longer than a run, so the run is not retried.
constexpr double kStealLimit = 0.15;

/// Binds this process to the highest-numbered CPU it may run on and
/// returns that CPU (-1 when it cannot). Threads created afterwards inherit
/// the binding, so a wire workload's client and server hand each statement
/// over on one vCPU instead of waking an idle one, a wake-up whose cost on
/// a shared host swings with the other guests' load.
int PinToOneCpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
  }
  return -1;
}

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 3;

/// Untraced run: kSetups set-ups, then the closed loop on the last.
bool MeasureEndToEnd(const Workload& w, const std::string& work,
                     const std::string& samples_path, Report* report,
                     Tally* tally, std::string* notes) {
  std::vector<double> setups;
  std::unique_ptr<Instance> inst;
  for (int i = 0; i < kSetups; ++i) {
    inst.reset();
    SetupTimes t;
    inst = Instance::Create(w, work + "/setup" + std::to_string(i), w.wire, &t,
                            tally);
    if (!inst) return false;
    setups.push_back(t.total_s);
  }
  std::vector<Sample> samples;
  const std::pair<double, double> ticks = CpuTicks();
  RunClosedLoop(w, ExecutorOf(inst.get()), &samples, tally);
  const double steal = StealShare(ticks, CpuTicks());
  inst.reset();

  report->metrics.push_back({"setup_s", "s", Median(setups)});
  report->metrics.push_back(
      {"throughput_sps", "stmt/s", Throughput(samples)});
  AddPercentiles(samples, Kind::kRead, "read", &report->metrics, notes);
  AddPercentiles(samples, Kind::kWrite, "write", &report->metrics, notes);
  report->metrics.push_back({"peak_rss_mb", "MB", PeakRssMb()});
  char buf[160];
  *notes += " setups_s=";
  for (size_t i = 0; i < setups.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.3f", i ? "," : "", setups[i]);
    *notes += buf;
  }
  std::snprintf(buf, sizeof(buf), " statements=%zu host_steal=%.3f contended=%d",
                samples.size(), steal, steal > kStealLimit);
  *notes += buf;
  for (size_t k = 0; k < w.classes.size(); ++k) {
    std::vector<double> ms;
    for (const Sample& s : samples) {
      if (s.cls == static_cast<int>(k)) ms.push_back(s.ms);
    }
    std::snprintf(buf, sizeof(buf), " %s_p50_ms=%.4f(n=%zu)",
                  w.classes[k].name.c_str(), Median(ms), ms.size());
    *notes += buf;
  }
  std::ofstream out(samples_path);
  for (const Sample& s : samples) {
    out << w.classes[s.cls].name << '\t' << s.tier << '\t' << s.ms << '\n';
  }
  return true;
}

/// Per-layer metrics of the traced run and the probes after it, keyed by
/// name. `ok` turns false when a probe errors or returns a wrong value.
void ProbeLayers(const Workload& w, Instance* inst, const RunCounts& c,
                 double busy_s, SpanRecorder* rec,
                 std::map<std::string, double>* out, bool* ok) {
  std::map<std::string, double>& m = *out;
  Database* db = inst->db();
  jaguar::obs::MetricsRegistry* reg = jaguar::obs::MetricsRegistry::Global();
  const double n = c.statements;

  // net, sql
  if (inst->client() != nullptr) {
    std::vector<double> pings;
    for (int i = 0; i < 500; ++i) {
      const int span = rec->Begin("probe.net.ping");
      if (!inst->client()->Ping().ok()) *ok = false;
      pings.push_back(rec->End(span) * 1e6);
    }
    m["net.ping_us"] = Median(pings);
  }
  m["net.encode_us"] = Ratio(c.encode_us, n);
  m["net.decode_us"] = Ratio(c.decode_us, n);
  m["net.result_bytes"] = Ratio(c.result_bytes, n);
  m["sql.parse_us"] = Ratio(c.parse_us, w.measured.size());

  // engine, obs
  for (size_t k = 0; k < w.classes.size(); ++k) {
    m["engine.execute_us." + w.classes[k].name] =
        Median(c.by_class[k].engine_us);
  }
  int span = rec->Begin("probe.obs.snapshot");
  m["obs.snapshot_us"] = 1e6 * Median(Time(200, [&] {
    const jaguar::obs::MetricsSnapshot before = reg->Snapshot();
    const jaguar::obs::MetricsSnapshot after = reg->Snapshot();
    if (jaguar::obs::SnapshotDelta(before, after).size() > after.size()) {
      *ok = false;
    }
  }));
  rec->End(span);
  m["obs.metrics_registered"] = reg->Snapshot().size();

  // index
  const auto indexes = db->catalog()->IndexesForTable(w.probe_table);
  if (!w.lookup_keys.empty() && !indexes.empty()) {
    jaguar::BTree tree(db->storage(), indexes[0]->root);
    span = rec->Begin("probe.index.lookup");
    const Clock::time_point t0 = Clock::now();
    for (int64_t key : w.lookup_keys) {
      if (!tree.SearchEqual(Value::Int(key)).ok()) *ok = false;
    }
    m["index.lookup_us"] = SecondsSince(t0) * 1e6 / w.lookup_keys.size();
    rec->End(span);
  }

  // exec, storage, wal: per class
  for (size_t k = 0; k < w.classes.size(); ++k) {
    const ClassCounts& cc = c.by_class[k];
    const ClassSpec& spec = w.classes[k];
    if (!spec.detail) continue;
    m["storage.pages_per_stmt." + spec.name] = Ratio(cc.pages, cc.statements);
    if (spec.examines) {
      m["exec.rows_examined_per_row." + spec.name] = Ratio(cc.examined, cc.rows);
    }
    if (spec.calls_udf) {
      m["exec.udf_calls_per_row." + spec.name] = Ratio(cc.udf_calls, cc.rows);
    }
    if (spec.kind == Kind::kWrite) {
      m["wal.bytes_per_write." + spec.name] = Ratio(cc.wal_bytes, cc.statements);
    }
  }
  m["exec.parallel_share"] = Ratio(c.parallel_stmts, n);
  m["exec.morsels_per_stmt"] = Ratio(c.morsels, n);

  // storage, types: per table
  m["storage.hit_ratio"] = Ratio(c.hits, c.hits + c.misses);
  m["storage.io_waits_per_stmt"] = Ratio(c.io_waits, n);
  m["storage.readahead_hit_ratio"] = Ratio(c.ra_hits, c.ra_issued);
  for (const TableRef& t : w.tables) {
    span = rec->Begin("probe.storage.scan." + t.metric_name);
    double ns_per_row = 0, pages_per_row = 0;
    auto sample = ScanRecords(db, t.sql_name, 1000, &ns_per_row, &pages_per_row);
    rec->End(span);
    if (!sample.ok()) {
      std::fprintf(stderr, "scan probe: %s\n", sample.status().ToString().c_str());
      *ok = false;
      continue;
    }
    m["storage.scan_ns_per_row." + t.metric_name] = ns_per_row;
    m["storage.pages_per_row." + t.metric_name] = pages_per_row;
    span = rec->Begin("probe.types.decode." + t.metric_name);
    const double s = TimeMin(3, [&] {
      for (const std::vector<uint8_t>& record : *sample) {
        if (!jaguar::Tuple::Deserialize(jaguar::Slice(record)).ok()) *ok = false;
      }
    });
    rec->End(span);
    m["types.decode_ns_per_row." + t.metric_name] = Ratio(s * 1e9, sample->size());
  }

  // udf, jvm, ipc
  span = rec->Begin("probe.udf");
  std::vector<UdfProbe> probes;
  std::string why;
  if (!ProbeUdfs(w, db, &probes, &why)) {
    std::fprintf(stderr, "udf probe: %s\n", why.c_str());
    *ok = false;
  }
  rec->End(span);
  for (size_t d = 0; d < probes.size(); ++d) {
    m[std::string("udf.invoke_ns.") + kDesignKeys[d]] = probes[d].invoke_ns;
    m[std::string("udf.batch_row_ns.") + kDesignKeys[d]] = probes[d].batch_row_ns;
    m[std::string("udf.callback_ns.") + kDesignKeys[d]] = probes[d].callback_ns;
  }
  if (probes.size() == 6) {
    // Time the isolated crossings took, from their probed per-row cost.
    const bool batched = w.options.vectorized_execution;
    const double icpp = batched ? probes[4].batch_row_ns : probes[4].invoke_ns;
    const double ijni = batched ? probes[5].batch_row_ns : probes[5].invoke_ns;
    m["udf.isolated_share"] = Ratio(
        (c.isolated_calls[0] * icpp + c.isolated_calls[1] * ijni) * 1e-9,
        busy_s);
  }
  m["udf.calls_per_stmt"] = Ratio(c.udf_calls, n);
  m["jvm.crossings_per_stmt"] = Ratio(c.jvm_crossings, n);
  m["ipc.parks_per_frame"] = Ratio(c.parks, c.frames);
  m["ipc.spins_per_frame"] = Ratio(c.spins, c.frames);
  m["ipc.bytes_per_row"] =
      Ratio(c.ring_bytes, c.isolated_calls[0] + c.isolated_calls[1]);

  // wal, and the storage footprint after a checkpoint
  m["wal.fsyncs_per_write"] = Ratio(c.fsyncs, c.writes);
  m["wal.checkpoints"] = c.checkpoints;
  if (!db->Flush().ok()) *ok = false;
  std::error_code ec;
  const double file_bytes = fs::file_size(inst->path(), ec);
  if (!ec) m["storage.file_bytes_per_user_byte"] = file_bytes / w.user_bytes;
}

/// Traced run: an untraced reference pass, (wire workloads) an embedded
/// pass for the engine's own execute times, then the traced pass and the
/// probes, each on a fresh set-up.
bool MeasureLayers(const Workload& w, const std::string& work,
                   const std::string& span_path, Report* report, Tally* tally,
                   std::string* notes) {
  double plain_tps = 0;
  {
    SetupTimes t;
    auto inst = Instance::Create(w, work + "/plain", w.wire, &t, tally);
    if (!inst) return false;
    std::vector<Sample> samples;
    Tally plain;
    RunClosedLoop(w, ExecutorOf(inst.get()), &samples, &plain);
    plain_tps = Throughput(samples);
    tally->failed += plain.failed;
    for (const std::string& msg : plain.messages) tally->messages.push_back(msg);
  }
  SpanRecorder rec;
  RunCounts c;
  c.by_class.assign(w.classes.size(), ClassCounts());
  if (w.wire) {
    SetupTimes t;
    auto embedded = Instance::Create(w, work + "/embedded", false, &t, tally);
    if (!embedded) return false;
    RunEmbedded(w, embedded.get(), &rec, &c, tally);
  }
  SetupTimes t;
  auto inst = Instance::Create(w, work + "/traced", w.wire, &t, tally);
  if (!inst) return false;
  std::vector<double> stmt_s;
  const std::pair<double, double> ticks = CpuTicks();
  RunTraced(w, inst.get(), &rec, &c, &stmt_s, tally);
  const double steal = StealShare(ticks, CpuTicks());
  double busy_s = 0;
  for (double s : stmt_s) busy_s += s;
  const double traced_tps = Ratio(stmt_s.size(), busy_s);

  std::map<std::string, double> m;
  bool ok = true;
  ProbeLayers(w, inst.get(), c, busy_s, &rec, &m, &ok);
  if (!ok) report->correct = false;
  m["setup.load_s"] = t.load_s;
  m["setup.register_s"] = t.register_s;
  m["setup.warmup_s"] = t.warmup_s;
  m["trace.overhead"] = 1.0 - Ratio(traced_tps, plain_tps);
  for (const auto& [name, unit] : PerLayerCatalog()) {
    report->metrics.push_back({name, unit, m.count(name) ? m[name] : 0});
  }
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "untraced_sps=%.3f traced_sps=%.3f spans=%zu statements=%zu "
                "host_steal=%.3f",
                plain_tps, traced_tps, rec.spans().size(), w.measured.size(),
                steal);
  *notes += buf;
  if (!rec.WriteJsonLines(span_path)) {
    std::fprintf(stderr, "could not write %s\n", span_path.c_str());
  }
  return true;
}

}  // namespace

bool RunBenchmark(const RunConfig& config, Report* report) {
  Workload w;
  if (!MakeWorkload(config.workload, config.seed, config.seconds, &w)) {
    std::fprintf(stderr, "unknown workload '%s'\n", config.workload.c_str());
    return false;
  }
  // Steadiness: every reported percentile sits inside one latency tier and
  // has ten samples beyond it, checked on the generated list before any
  // statement runs.
  std::vector<int> read_tiers, write_tiers;
  for (const Statement& st : w.measured) {
    (w.classes[st.cls].kind == Kind::kRead ? read_tiers : write_tiers)
        .push_back(st.tier);
  }
  std::vector<std::string> errors =
      CheckPercentilePlacement(w.name + " reads", read_tiers, {50, 90});
  for (const std::string& e :
       CheckPercentilePlacement(w.name + " writes", write_tiers, {50, 90})) {
    errors.push_back(e);
  }
  if (!errors.empty()) {
    for (const std::string& e : errors) std::fprintf(stderr, "%s\n", e.c_str());
    return false;
  }

  std::error_code ec;
  fs::create_directories(config.out_dir, ec);
  const std::string run_id = config.workload + "-seed" +
                             std::to_string(config.seed) + "-trace" +
                             std::to_string(config.trace ? 1 : 0);
  const RemoveOnExit work{(fs::path(config.work_dir) /
                           (run_id + "-" + std::to_string(::getpid())))
                              .string()};
  Tally tally;
  std::string notes;
  if (w.wire) notes = "cpu=" + std::to_string(PinToOneCpu()) + " ";
  const bool ran =
      config.trace
          ? MeasureLayers(w, work.path,
                          (fs::path(config.out_dir) / (run_id + ".spans.jsonl"))
                              .string(),
                          report, &tally, &notes)
          : MeasureEndToEnd(w, work.path,
                            (fs::path(config.out_dir) / (run_id + ".samples.tsv"))
                                .string(),
                            report, &tally, &notes);
  if (!ran) return false;

  report->attempted = tally.attempted;
  report->failed = tally.failed;
  if (tally.failed > 0) report->correct = false;
  for (const std::string& msg : tally.messages) {
    std::fprintf(stderr, "failed: %s\n", msg.c_str());
  }
  std::fprintf(stderr, "%s\n", notes.c_str());
  WriteResultFile(config, *report, notes,
                  (fs::path(config.out_dir) / (run_id + ".json")).string());
  std::printf("%s\n", MetaJson(config).c_str());
  return true;
}

}  // namespace perfbench
