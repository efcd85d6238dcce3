// Tests for the src/obs metrics layer: registry registration/lookup, counter
// concurrency, histogram bucket/percentile math, snapshot-delta semantics,
// the slot readings behind `QueryResult::metrics_delta`, prefix filtering —
// plus the end-to-end acceptance path: a query invoking a JNI-design UDF
// 10,000 times is fully observable through both SHOW METRICS and the
// QueryResult metrics delta, and every statement's delta equals the
// snapshot diff taken around it.

#include "obs/metrics.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <limits>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "engine/database.h"
#include "jjc/jjc.h"
#include "temp_db.h"
#include "udf/generic_udf.h"
#include "udf/udf.h"

namespace jaguar {
namespace {

using obs::Counter;
using obs::Histogram;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;

// Metric names in these tests are namespaced under "test.obs." so they never
// collide with the real instrumentation (the registry is process-global and
// shared with every other test in this binary).

TEST(MetricsRegistryTest, CounterRegistrationAndLookup) {
  MetricsRegistry* reg = MetricsRegistry::Global();
  Counter* a = reg->GetCounter("test.obs.reg.a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(reg->GetCounter("test.obs.reg.a"), a);  // stable pointer
  EXPECT_NE(reg->GetCounter("test.obs.reg.b"), a);

  a->Add();
  a->Add(41);
  EXPECT_EQ(a->value(), 42u);
}

TEST(MetricsRegistryTest, NameHoldsOneKindOnly) {
  MetricsRegistry* reg = MetricsRegistry::Global();
  ASSERT_NE(reg->GetCounter("test.obs.kind.counter"), nullptr);
  EXPECT_EQ(reg->GetHistogram("test.obs.kind.counter"), nullptr);
  ASSERT_NE(reg->GetHistogram("test.obs.kind.hist"), nullptr);
  EXPECT_EQ(reg->GetCounter("test.obs.kind.hist"), nullptr);
}

TEST(MetricsRegistryTest, CounterConcurrencySumsExactly) {
  Counter* c = MetricsRegistry::Global()->GetCounter("test.obs.concurrent");
  constexpr int kThreads = 8;
  constexpr int kIncrements = 25000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (int i = 0; i < kIncrements; ++i) c->Add();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c->value(), static_cast<uint64_t>(kThreads) * kIncrements);
}

TEST(HistogramTest, BucketBoundaries) {
  // Bucket index == bit width: bucket 0 holds only 0, bucket i holds
  // [2^(i-1), 2^i).
  EXPECT_EQ(Histogram::BucketIndex(0), 0);
  EXPECT_EQ(Histogram::BucketIndex(1), 1);
  EXPECT_EQ(Histogram::BucketIndex(2), 2);
  EXPECT_EQ(Histogram::BucketIndex(3), 2);
  EXPECT_EQ(Histogram::BucketIndex(4), 3);
  EXPECT_EQ(Histogram::BucketIndex(7), 3);
  EXPECT_EQ(Histogram::BucketIndex(8), 4);
  EXPECT_EQ(Histogram::BucketIndex(uint64_t{1} << 62), 63);
  EXPECT_EQ(Histogram::BucketIndex(std::numeric_limits<uint64_t>::max()), 63);

  EXPECT_EQ(Histogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(Histogram::BucketUpperBound(1), 1u);
  EXPECT_EQ(Histogram::BucketUpperBound(2), 3u);
  EXPECT_EQ(Histogram::BucketUpperBound(3), 7u);
  EXPECT_EQ(Histogram::BucketUpperBound(63),
            std::numeric_limits<uint64_t>::max());

  Histogram h;
  h.Record(0);
  h.Record(1);
  h.Record(3);
  h.Record(8);
  std::vector<uint64_t> buckets = h.BucketCounts();
  EXPECT_EQ(buckets[0], 1u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 1u);
  EXPECT_EQ(buckets[4], 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 12u);
  EXPECT_DOUBLE_EQ(h.Mean(), 3.0);
}

TEST(HistogramTest, PercentileMath) {
  Histogram empty;
  EXPECT_EQ(empty.ValueAtPercentile(50), 0u);

  Histogram single;
  single.Record(5);
  // One sample in bucket 3 ([4,7]); every percentile answers that bucket's
  // upper bound.
  EXPECT_EQ(single.ValueAtPercentile(0), 7u);
  EXPECT_EQ(single.ValueAtPercentile(50), 7u);
  EXPECT_EQ(single.ValueAtPercentile(100), 7u);

  // 1..100 once each: cumulative bucket counts are 1,3,7,15,31,63,100.
  Histogram h;
  for (uint64_t v = 1; v <= 100; ++v) h.Record(v);
  EXPECT_EQ(h.ValueAtPercentile(1), 1u);     // rank 1 -> bucket 1
  EXPECT_EQ(h.ValueAtPercentile(25), 31u);   // rank 25 -> bucket 5 [16,31]
  EXPECT_EQ(h.ValueAtPercentile(50), 63u);   // rank 50 -> bucket 6 [32,63]
  EXPECT_EQ(h.ValueAtPercentile(100), 127u);  // rank 100 -> bucket 7 [64,127]
  // The approximation never undershoots the true percentile and stays
  // within one power of two above it.
  for (double p : {10.0, 30.0, 60.0, 90.0, 99.0}) {
    uint64_t truth = static_cast<uint64_t>(p);  // value v has rank v here
    EXPECT_GE(h.ValueAtPercentile(p), truth);
    EXPECT_LT(h.ValueAtPercentile(p), truth * 2 + 2);
  }

  // Ten samples 1, 2, 4, ..., 512, one per bucket: p95 and p99 are the
  // tenth sample (nearest rank ceil(9.5) and ceil(9.9)), so they answer the
  // last bucket [512,1023]. A truncated rank answered the ninth sample's
  // bucket [256,511].
  Histogram powers;
  for (uint64_t v = 1; v <= 512; v *= 2) powers.Record(v);
  ASSERT_EQ(powers.count(), 10u);
  EXPECT_EQ(powers.ValueAtPercentile(95), 1023u);
  EXPECT_EQ(powers.ValueAtPercentile(99), 1023u);
}

TEST(MetricsRegistryTest, TimerRecordsIntoHistogram) {
  Histogram* h = MetricsRegistry::Global()->GetHistogram("test.obs.timer");
  { obs::Timer t(h); }
  EXPECT_EQ(h->count(), 1u);
  { obs::Timer t(nullptr); }  // null histogram: no-op, must not crash
  EXPECT_EQ(h->count(), 1u);
}

TEST(MetricsRegistryTest, SnapshotDeltaSemantics) {
  MetricsRegistry* reg = MetricsRegistry::Global();
  Counter* changed = reg->GetCounter("test.obs.delta.changed");
  reg->GetCounter("test.obs.delta.idle");
  Histogram* hist = reg->GetHistogram("test.obs.delta.hist");

  MetricsSnapshot before = reg->Snapshot("test.obs.delta.");
  changed->Add(7);
  hist->Record(100);
  Counter* late = reg->GetCounter("test.obs.delta.late");  // born after
  late->Add(2);
  MetricsSnapshot after = reg->Snapshot("test.obs.delta.");

  MetricsSnapshot delta = obs::SnapshotDelta(before, after);
  EXPECT_EQ(delta.at("test.obs.delta.changed"), 7u);
  EXPECT_EQ(delta.at("test.obs.delta.hist.count"), 1u);
  EXPECT_EQ(delta.at("test.obs.delta.hist.sum"), 100u);
  // Metrics registered after `before` count from zero.
  EXPECT_EQ(delta.at("test.obs.delta.late"), 2u);
  // Unchanged metrics are dropped.
  EXPECT_EQ(delta.count("test.obs.delta.idle"), 0u);
}

TEST(MetricsRegistryTest, DeltaSinceMatchesSnapshotDelta) {
  MetricsRegistry* reg = MetricsRegistry::Global();
  Counter* changed = reg->GetCounter("test.obs.slots.changed");
  reg->GetCounter("test.obs.slots.idle");
  Histogram* hist = reg->GetHistogram("test.obs.slots.hist");

  std::vector<uint64_t> values;
  reg->ReadValues(&values);
  const MetricsSnapshot before = reg->Snapshot();
  changed->Add(7);
  hist->Record(100);
  reg->GetCounter("test.obs.slots.late")->Add(2);  // born after the reading
  reg->GetHistogram("test.obs.slots.late_hist")->Record(5);
  reg->GetCounter("test.obs.slots.late_idle");

  const MetricsSnapshot delta = reg->DeltaSince(values);
  EXPECT_EQ(delta, obs::SnapshotDelta(before, reg->Snapshot()));
  EXPECT_EQ(delta.at("test.obs.slots.changed"), 7u);
  EXPECT_EQ(delta.at("test.obs.slots.hist.count"), 1u);
  EXPECT_EQ(delta.at("test.obs.slots.hist.sum"), 100u);
  // Slots registered after the reading count from zero.
  EXPECT_EQ(delta.at("test.obs.slots.late"), 2u);
  EXPECT_EQ(delta.at("test.obs.slots.late_hist.count"), 1u);
  EXPECT_EQ(delta.at("test.obs.slots.late_hist.sum"), 5u);
  EXPECT_EQ(delta.count("test.obs.slots.idle"), 0u);
  EXPECT_EQ(delta.count("test.obs.slots.late_idle"), 0u);

  // A counter is one slot, a histogram two.
  std::vector<uint64_t> after;
  reg->ReadValues(&after);
  EXPECT_EQ(after.size(), values.size() + 4);
  EXPECT_TRUE(reg->DeltaSince(after).empty());
}

TEST(MetricsRegistryTest, PrefixFiltering) {
  MetricsRegistry* reg = MetricsRegistry::Global();
  reg->GetCounter("test.obs.like.alpha")->Add();
  reg->GetCounter("test.obs.like.beta")->Add();
  reg->GetCounter("test.obs.unlike.gamma")->Add();

  MetricsSnapshot snap = reg->Snapshot("test.obs.like.");
  EXPECT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap.count("test.obs.like.alpha"), 1u);
  EXPECT_EQ(snap.count("test.obs.unlike.gamma"), 0u);

  std::string text = reg->DumpText("test.obs.like.");
  EXPECT_NE(text.find("test.obs.like.alpha"), std::string::npos);
  EXPECT_EQ(text.find("test.obs.unlike.gamma"), std::string::npos);

  std::string json = reg->DumpJson("test.obs.like.");
  EXPECT_NE(json.find("\"test.obs.like.beta\":"), std::string::npos);
  EXPECT_EQ(json.find("gamma"), std::string::npos);

  auto rows = reg->Rows("test.obs.like.");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].first, "test.obs.like.alpha");
  EXPECT_EQ(rows[0].second, "1");
}

TEST(MetricsRegistryTest, DesignMetricKeyMapping) {
  EXPECT_EQ(UdfRunner::DesignMetricKey("C++"), "cpp");
  EXPECT_EQ(UdfRunner::DesignMetricKey("IC++"), "icpp");
  EXPECT_EQ(UdfRunner::DesignMetricKey("JNI"), "jni");
  EXPECT_EQ(UdfRunner::DesignMetricKey("IJNI"), "ijni");
  EXPECT_EQ(UdfRunner::DesignMetricKey("SFI-C++"), "sfi_cpp");
}

// ---------------------------------------------------------------------------
// End-to-end: SHOW METRICS + QueryResult delta over a real JNI workload
// ---------------------------------------------------------------------------

class MetricsE2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = Database::Open(path_).value();
  }
  void TearDown() override {
    db_.reset();
  }

  QueryResult MustExecute(const std::string& sql) {
    Result<QueryResult> r = db_->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status();
    return r.ok() ? std::move(r).value() : QueryResult{};
  }

  /// Finds a metric row by exact name in a SHOW METRICS result; returns its
  /// value parsed as an integer (-1 if absent).
  static int64_t MetricRow(const QueryResult& result,
                           const std::string& name) {
    for (const Tuple& row : result.rows) {
      if (row.value(0).AsString() == name) {
        return atoll(row.value(1).AsString().c_str());
      }
    }
    return -1;
  }

  TempDb db_file_{"obs"};
  std::string path_ = db_file_.path();
  std::unique_ptr<Database> db_;
};

TEST_F(MetricsE2eTest, JniWorkloadIsObservableThreeWays) {
  // The acceptance workload: a JNI-design UDF invoked exactly 10,000 times.
  constexpr int kRows = 10000;
  MustExecute("CREATE TABLE r (id INT, b BYTEARRAY)");
  for (int base = 0; base < kRows; base += 500) {
    std::string sql = "INSERT INTO r VALUES ";
    for (int i = 0; i < 500; ++i) {
      if (i > 0) sql += ", ";
      sql += StringPrintf("(%d, randbytes(4, %d))", base + i, base + i);
    }
    MustExecute(sql);
  }

  UdfInfo info;
  info.name = "g_jni";
  info.language = UdfLanguage::kJJava;
  info.return_type = TypeId::kInt;
  info.arg_types = {TypeId::kBytes, TypeId::kInt, TypeId::kInt, TypeId::kInt};
  info.impl_name = "GenericUdf.run";
  info.payload = jjc::Compile(GenericUdfJJavaSource()).value().Serialize();
  ASSERT_TRUE(db_->RegisterUdf(info).ok());

  obs::MetricsSnapshot before = MetricsRegistry::Global()->Snapshot("udf.jni.");

  QueryResult r = MustExecute("SELECT g_jni(b, 10, 10, 0) FROM r");
  ASSERT_EQ(r.rows.size(), static_cast<size_t>(kRows));

  // Way 1: programmatic per-query snapshot delta in the QueryResult.
  EXPECT_EQ(r.metrics_delta.at("udf.jni.invocations"), 10000u);
  EXPECT_EQ(r.metrics_delta.at("udf.jni.latency_ns.count"), 10000u);
  EXPECT_GT(r.metrics_delta.at("udf.jni.latency_ns.sum"), 0u);
  EXPECT_GT(r.metrics_delta.at("udf.jni.arg_bytes"), 0u);
  EXPECT_GE(r.metrics_delta.at("jvm.jit.compiled_methods"), 1u);
  EXPECT_GT(r.metrics_delta.at("jvm.heap.allocations"), 0u);

  // Way 2: the raw registry (what DumpText/DumpJson serve). `before` may
  // predate the udf.jni.* counters entirely (they are born on first use), so
  // compare via SnapshotDelta, which treats absent-before as zero.
  obs::MetricsSnapshot registry_delta = obs::SnapshotDelta(
      before, MetricsRegistry::Global()->Snapshot("udf.jni."));
  EXPECT_EQ(registry_delta.at("udf.jni.invocations"), 10000u);

  // Way 3: SHOW METRICS through the SQL front door.
  QueryResult shown = MustExecute("SHOW METRICS LIKE 'udf.jni.'");
  ASSERT_EQ(shown.schema.num_columns(), 2u);
  EXPECT_GE(MetricRow(shown, "udf.jni.invocations"), 10000);
  EXPECT_GE(MetricRow(shown, "udf.jni.latency_ns.count"), 10000);
  EXPECT_GT(MetricRow(shown, "udf.jni.latency_ns.p50"), 0);
  // The LIKE filter really filters.
  EXPECT_EQ(MetricRow(shown, "jvm.jit.compiled_methods"), -1);

  QueryResult jit = MustExecute("SHOW METRICS LIKE 'jvm.jit.'");
  EXPECT_GE(MetricRow(jit, "jvm.jit.compiled_methods"), 1);

  QueryResult all = MustExecute("SHOW METRICS");
  EXPECT_GT(all.rows.size(), shown.rows.size());
}

TEST_F(MetricsE2eTest, ShowMetricsParseErrors) {
  EXPECT_FALSE(db_->Execute("SHOW METRICS LIKE udf").ok());  // unquoted
  EXPECT_FALSE(db_->Execute("SHOW TABLES").ok());
  EXPECT_FALSE(db_->Execute("SHOW METRICS 'x'").ok());  // trailing junk
}

TEST_F(MetricsE2eTest, DmlStatementsCarryDeltas) {
  MustExecute("CREATE TABLE t (x INT)");
  QueryResult ins = MustExecute("INSERT INTO t VALUES (1), (2), (3)");
  // Storage-layer activity shows up in the DML delta (page writes hit the
  // buffer pool at minimum).
  bool saw_storage = false;
  for (const auto& [name, value] : ins.metrics_delta) {
    if (name.rfind("storage.bufferpool.", 0) == 0 && value > 0) {
      saw_storage = true;
    }
  }
  EXPECT_TRUE(saw_storage);

  QueryResult sel = MustExecute("SELECT x FROM t");
  EXPECT_EQ(sel.metrics_delta.at("exec.seqscan.tuples"), 3u);
  EXPECT_EQ(sel.metrics_delta.at("exec.project.tuples"), 3u);
}

// ---------------------------------------------------------------------------
// QueryResult::metrics_delta against whole-registry snapshots
// ---------------------------------------------------------------------------

class MetricsDeltaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions options;
    options.wal_fsync = false;
    db_ = Database::Open(db_file_.path(), options).value();
  }
  void TearDown() override { db_.reset(); }

  /// Runs `sql`; when it succeeds, expects its `metrics_delta` to equal the
  /// `SnapshotDelta` of two whole-registry snapshots taken around the call.
  Result<QueryResult> ExecuteAndCompare(const std::string& sql) {
    MetricsRegistry* reg = MetricsRegistry::Global();
    const MetricsSnapshot before = reg->Snapshot();
    Result<QueryResult> r = db_->Execute(sql);
    const MetricsSnapshot after = reg->Snapshot();
    if (r.ok()) {
      EXPECT_EQ(r->metrics_delta, obs::SnapshotDelta(before, after)) << sql;
    }
    return r;
  }

  QueryResult MustExecute(const std::string& sql) {
    Result<QueryResult> r = ExecuteAndCompare(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status();
    return r.ok() ? std::move(r).value() : QueryResult{};
  }

  /// Creates r(id INT, b BYTEARRAY), with an index on id when `indexed`,
  /// and fills it with ids 0..rows-1 in one multi-row INSERT.
  void MakeTable(int rows, bool indexed) {
    MustExecute("CREATE TABLE r (id INT, b BYTEARRAY)");
    if (indexed) MustExecute("CREATE INDEX r_id ON r (id)");
    std::string sql = "INSERT INTO r VALUES ";
    for (int i = 0; i < rows; ++i) {
      if (i > 0) sql += ", ";
      sql += StringPrintf("(%d, randbytes(16, %d))", i, i);
    }
    EXPECT_EQ(MustExecute(sql).rows_affected, static_cast<uint64_t>(rows));
  }

  /// Registers the generic UDF as `name` under the given design.
  void RegisterGeneric(const std::string& name, UdfLanguage lang) {
    UdfInfo info;
    info.name = name;
    info.language = lang;
    info.return_type = TypeId::kInt;
    info.arg_types = {TypeId::kBytes, TypeId::kInt, TypeId::kInt,
                      TypeId::kInt};
    if (lang == UdfLanguage::kJJava) {
      info.impl_name = "GenericUdf.run";
      info.payload = jjc::Compile(GenericUdfJJavaSource()).value().Serialize();
    } else {
      info.impl_name = "generic_udf";
    }
    ASSERT_TRUE(db_->RegisterUdf(info).ok()) << name;
  }

  TempDb db_file_{"delta"};
  std::unique_ptr<Database> db_;
};

TEST_F(MetricsDeltaTest, EveryStatementMatchesTheSnapshotDiff) {
  MakeTable(50, /*indexed=*/true);
  RegisterGeneric("g_jni", UdfLanguage::kJJava);

  QueryResult native =
      MustExecute("SELECT id, length(b) FROM r WHERE abs_int(id) < 30");
  EXPECT_EQ(native.rows.size(), 30u);
  EXPECT_EQ(native.metrics_delta.at("udf.cpp.invocations"), 50u + 30u);
  QueryResult jni =
      MustExecute("SELECT g_jni(b, 10, 1, 0) FROM r WHERE id >= 10");
  EXPECT_EQ(jni.rows.size(), 40u);
  EXPECT_EQ(jni.metrics_delta.at("udf.jni.invocations"), 40u);
  EXPECT_EQ(jni.metrics_delta.at("udf.jni.latency_ns.count"), 40u);
  EXPECT_EQ(jni.metrics_delta.at("exec.index.range_scans"), 1u);

  EXPECT_EQ(
      MustExecute("UPDATE r SET id = id + 100 WHERE id < 5").rows_affected,
      5u);
  EXPECT_EQ(MustExecute("DELETE FROM r WHERE id > 140").rows_affected, 0u);
  EXPECT_EQ(MustExecute("DELETE FROM r WHERE id > 102").rows_affected, 2u);
  EXPECT_GT(MustExecute("SHOW METRICS").rows.size(), 0u);
  EXPECT_TRUE(MustExecute("SET TIMEOUT 0").metrics_delta.empty());

  // A statement that fails part-way (division by zero at id 7) reports no
  // delta, and its work does not leak into the next statement's.
  Result<QueryResult> failed = ExecuteAndCompare("SELECT 1 / (id - 7) FROM r");
  EXPECT_FALSE(failed.ok());
  QueryResult count = MustExecute("SELECT COUNT(*) FROM r");
  ASSERT_EQ(count.rows.size(), 1u);
  EXPECT_EQ(count.rows[0].value(0).AsInt(), 48);
  EXPECT_EQ(count.metrics_delta.at("exec.seqscan.tuples"), 48u);
}

TEST_F(MetricsDeltaTest, AMetricBornInAStatementReportsItsFullCount) {
  MakeTable(20, /*indexed=*/false);
  RegisterGeneric("g_sfi", UdfLanguage::kNativeSfi);
  // No other test here calls the SFI design: its first call, inside the
  // next statement, registers udf.sfi_cpp.*.
  ASSERT_TRUE(MetricsRegistry::Global()->Snapshot("udf.sfi_cpp.").empty());

  QueryResult r = MustExecute("SELECT g_sfi(b, 10, 1, 0) FROM r");
  ASSERT_EQ(r.rows.size(), 20u);
  EXPECT_EQ(r.metrics_delta.at("udf.sfi_cpp.invocations"), 20u);
  EXPECT_EQ(r.metrics_delta.at("udf.sfi_cpp.latency_ns.count"), 20u);
  EXPECT_GT(r.metrics_delta.at("udf.sfi_cpp.latency_ns.sum"), 0u);
  EXPECT_GT(r.metrics_delta.at("udf.sfi_cpp.arg_bytes"), 0u);
}

TEST_F(MetricsDeltaTest, RegistrationBesideExecuteKeepsEachDeltaExact) {
  MakeTable(200, /*indexed=*/true);
  const std::vector<std::string> script = {
      "SELECT id FROM r WHERE id >= 20 AND id < 60",
      "SELECT COUNT(*) FROM r WHERE length(b) > 3",
      "UPDATE r SET b = zerobytes(4) WHERE id < 10",
  };
  auto exec_counts = [](const MetricsSnapshot& delta) {
    MetricsSnapshot out;
    for (const auto& [name, value] : delta) {
      if (StartsWith(name, "exec.")) out.emplace(name, value);
    }
    return out;
  };
  std::vector<MetricsSnapshot> single_threaded;
  for (const std::string& sql : script) {
    single_threaded.push_back(exec_counts(MustExecute(sql).metrics_delta));
    EXPECT_FALSE(single_threaded.back().empty()) << sql;
  }

  // A second thread registers fresh counters and histograms, and moves
  // them, for as long as the statements run; every statement still reports
  // exactly its own exec.* counts.
  constexpr int kRegistrations = 2000;
  std::atomic<bool> started{false};
  std::atomic<bool> registered{false};
  std::thread registrar([&] {
    while (!started.load()) std::this_thread::yield();
    MetricsRegistry* reg = MetricsRegistry::Global();
    for (int i = 0; i < kRegistrations; ++i) {
      reg->GetCounter(StringPrintf("test.obs.churn.c%d", i))->Add(i + 1);
      reg->GetHistogram(StringPrintf("test.obs.churn.h%d", i))->Record(i);
    }
    registered.store(true);
  });
  started.store(true);
  // Whole-registry snapshots taken here would catch the other thread's
  // moves, so these statements run without ExecuteAndCompare.
  int rounds = 0;
  for (; !registered.load() || rounds < 3; ++rounds) {
    for (size_t s = 0; s < script.size(); ++s) {
      // No ASSERT here: returning early would skip the join.
      Result<QueryResult> r = db_->Execute(script[s]);
      EXPECT_TRUE(r.ok()) << script[s] << " -> " << r.status();
      if (!r.ok()) continue;
      EXPECT_EQ(exec_counts(r->metrics_delta), single_threaded[s])
          << script[s] << " in round " << rounds;
    }
  }
  registrar.join();
  EXPECT_EQ(MetricsRegistry::Global()->Snapshot("test.obs.churn.").size(),
            3u * kRegistrations);
}

}  // namespace
}  // namespace jaguar
