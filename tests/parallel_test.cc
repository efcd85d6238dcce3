// Tests for morsel-driven parallel query execution (exec/parallel) and the
// executor pool backing the isolated UDF designs under it: parallel scans
// must be bit-identical to serial across all four designs, concurrent
// InvokeBatch on one shared runner must agree with the pure model, and a
// pooled executor child dying must fail only its leaseholder's batch (with
// the pool respawning a replacement).

#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "engine/database.h"
#include "ipc/remote_executor.h"
#include "jjc/jjc.h"
#include "obs/metrics.h"
#include "temp_db.h"
#include "udf/executor_pool.h"
#include "udf/generic_udf.h"
#include "udf/isolated_udf_runner.h"
#include "udf/jvm_udf_runner.h"

#include "test_requirements.h"

namespace jaguar {
namespace {

// ---------------------------------------------------------------------------
// A parallel LIMIT does no more work than its serial plan
// ---------------------------------------------------------------------------

TEST(ParallelLimitTest, SerialAndParallelPlansMakeIdenticalCounts) {
  // 4,000 rows of 100 bytes: ~60 heap pages, ~15 four-page morsels.
  constexpr int kLimitRows = 4000;
  const char* sql = "SELECT id FROM t WHERE byte_at(b, 0) >= 0 LIMIT 10";
  struct Counts {
    uint64_t udf_calls = 0;
    uint64_t page_fetches = 0;
    uint64_t parallel_queries = 0;
    bool operator==(const Counts& o) const {
      return udf_calls == o.udf_calls && page_fetches == o.page_fetches &&
             parallel_queries == o.parallel_queries;
    }
  };
  auto delta = [](const QueryResult& r, const char* name) -> uint64_t {
    auto it = r.metrics_delta.find(name);
    return it != r.metrics_delta.end() ? it->second : 0;
  };
  std::optional<Counts> serial;
  std::string serial_rows;
  for (size_t workers : {1, 2, 4}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    TempDb file("parallel_limit_" + std::to_string(workers));
    DatabaseOptions options;
    options.vectorized_execution = true;
    options.num_workers = workers;
    auto db = Database::Open(file.path(), options).value();
    ASSERT_TRUE(db->Execute("CREATE TABLE t (id INT, b BYTEARRAY)").ok());
    for (int start = 0; start < kLimitRows; start += 200) {
      std::string insert = "INSERT INTO t VALUES ";
      for (int i = start; i < start + 200; ++i) {
        if (i > start) insert += ", ";
        insert += StringPrintf("(%d, randbytes(100, %d))", i, i);
      }
      ASSERT_TRUE(db->Execute(insert).ok());
    }
    for (int run = 0; run < 6; ++run) {
      QueryResult r = db->Execute(sql).value();
      std::string rows;
      for (const Tuple& t : r.rows) rows += t.ToString();
      Counts counts;
      counts.udf_calls = delta(r, "udf.cpp.invocations");
      counts.page_fetches = delta(r, "storage.bufferpool.hits") +
                            delta(r, "storage.bufferpool.misses");
      counts.parallel_queries = delta(r, "exec.parallel.queries");
      if (!serial.has_value()) {
        ASSERT_EQ(r.rows.size(), 10u);
        EXPECT_EQ(counts.udf_calls, 10u);
        EXPECT_EQ(counts.parallel_queries, 0u);
        serial = counts;
        serial_rows = rows;
        continue;
      }
      SCOPED_TRACE("run " + std::to_string(run));
      EXPECT_EQ(rows, serial_rows);
      EXPECT_TRUE(counts == *serial)
          << counts.udf_calls << " calls, " << counts.page_fetches
          << " fetches, " << counts.parallel_queries << " parallel; serial "
          << serial->udf_calls << ", " << serial->page_fetches << ", "
          << serial->parallel_queries;
    }
  }
}

// ---------------------------------------------------------------------------
// Parallel SQL execution == serial SQL execution, across every design
// ---------------------------------------------------------------------------

// 1000-byte rows at ~8 per page: kRows rows span ~15 heap pages, i.e. ~4
// morsels at the default 4 pages/morsel — enough to keep 4 workers busy.
constexpr int kRows = 120;

class ParallelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions serial_options;
    serial_options.vectorized_execution = true;
    serial_options.batch_size = 16;
    serial_options.num_workers = 1;
    DatabaseOptions parallel_options = serial_options;
    parallel_options.num_workers = 4;

    serial_db_ = Database::Open(serial_file_.path(), serial_options).value();
    parallel_db_ =
        Database::Open(parallel_file_.path(), parallel_options).value();
    for (Database* db : {serial_db_.get(), parallel_db_.get()}) {
      MustExecute(db, "CREATE TABLE r (b BYTEARRAY)");
      for (int i = 0; i < kRows; ++i) {
        MustExecute(db, StringPrintf("INSERT INTO r VALUES (randbytes(%d, %d))",
                                     1000, 100 + i));
      }
    }
  }

  void TearDown() override {
    // Every query path — serial and morsel-parallel — must balance its page
    // pins; a nonzero count here means some operator leaked a PageGuard.
    if (serial_db_) {
      EXPECT_EQ(serial_db_->storage()->buffer_pool()->pinned_frames(), 0u);
    }
    if (parallel_db_) {
      EXPECT_EQ(parallel_db_->storage()->buffer_pool()->pinned_frames(), 0u);
    }
    serial_db_.reset();
    parallel_db_.reset();
  }

  QueryResult MustExecute(Database* db, const std::string& sql) {
    Result<QueryResult> r = db->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status();
    return r.ok() ? std::move(r).value() : QueryResult{};
  }

  void RegisterGenericOnBoth(const std::string& name, UdfLanguage lang) {
    for (Database* db : {serial_db_.get(), parallel_db_.get()}) {
      UdfInfo info;
      info.name = name;
      info.language = lang;
      info.return_type = TypeId::kInt;
      info.arg_types = {TypeId::kBytes, TypeId::kInt, TypeId::kInt,
                        TypeId::kInt};
      if (lang == UdfLanguage::kJJava || lang == UdfLanguage::kJJavaIsolated) {
        info.impl_name = "GenericUdf.run";
        info.payload = jjc::Compile(GenericUdfJJavaSource()).value().Serialize();
      } else {
        info.impl_name = "generic_udf";
      }
      ASSERT_TRUE(db->RegisterUdf(info).ok()) << name;
    }
  }

  /// Runs `sql` on both databases and requires identical serialized rows.
  /// \return The parallel database's result (for metrics assertions).
  QueryResult ExpectSameRows(const std::string& sql) {
    QueryResult serial = MustExecute(serial_db_.get(), sql);
    QueryResult parallel = MustExecute(parallel_db_.get(), sql);
    EXPECT_EQ(parallel.rows.size(), serial.rows.size()) << sql;
    for (size_t i = 0;
         i < std::min(parallel.rows.size(), serial.rows.size()); ++i) {
      EXPECT_EQ(Slice(parallel.rows[i].Serialize()).ToString(),
                Slice(serial.rows[i].Serialize()).ToString())
          << sql << " row " << i;
    }
    return parallel;
  }

  static uint64_t MetricDelta(const QueryResult& r, const std::string& name) {
    auto it = r.metrics_delta.find(name);
    return it != r.metrics_delta.end() ? it->second : uint64_t{0};
  }

  static uint64_t ParallelQueries(const QueryResult& r) {
    return MetricDelta(r, "exec.parallel.queries");
  }

  TempDb serial_file_{"parallel_serial"};
  TempDb parallel_file_{"parallel_parallel"};
  std::unique_ptr<Database> serial_db_, parallel_db_;
};

TEST_F(ParallelTest, AllDesignsMatchSerialUnderParallelScan) {
  JAGUAR_REQUIRE_THREADS(4);
  JAGUAR_REQUIRE_FORK();  // isolated designs spawn executor children
  RegisterGenericOnBoth("g_ic", UdfLanguage::kNativeIsolated);
  RegisterGenericOnBoth("g_jni", UdfLanguage::kJJava);
  RegisterGenericOnBoth("g_sfi", UdfLanguage::kNativeSfi);
  RegisterGenericOnBoth("g_ijni", UdfLanguage::kJJavaIsolated);

  // Every design's UDF runs on 4 worker threads (IC++/IJNI through a 4-deep
  // executor pool, JNI through the shared JagVM, SFI serialized on its
  // region) — results must be bit-identical to serial, including the 2
  // server callbacks per row arriving concurrently.
  for (const char* name :
       {"generic_udf", "g_ic", "g_jni", "g_sfi", "g_ijni"}) {
    uint64_t serial_cb = serial_db_->callbacks_served();
    uint64_t parallel_cb = parallel_db_->callbacks_served();
    QueryResult r =
        ExpectSameRows(StringPrintf("SELECT %s(b, 20, 3, 2) FROM r", name));
    EXPECT_GE(ParallelQueries(r), 1u) << name;
    EXPECT_EQ(serial_db_->callbacks_served() - serial_cb, uint64_t{2 * kRows})
        << name;
    EXPECT_EQ(parallel_db_->callbacks_served() - parallel_cb,
              uint64_t{2 * kRows})
        << name;
  }
  // Cross-check row 0 against the pure model.
  QueryResult r = MustExecute(parallel_db_.get(),
                              "SELECT generic_udf(b, 20, 3, 2) FROM r");
  EXPECT_EQ(r.rows[0].value(0).AsInt(),
            GenericUdfExpected(Random(100).Bytes(1000), 20, 3, 2));
}

TEST_F(ParallelTest, FilteredParallelScanMatchesSerial) {
  JAGUAR_REQUIRE_THREADS(4);
  JAGUAR_REQUIRE_FORK();
  RegisterGenericOnBoth("g_ic", UdfLanguage::kNativeIsolated);
  // Threshold = row 0's UDF value, so the predicate is satisfiable but not
  // trivially all-pass; workers evaluate it batch-at-a-time in parallel.
  const int64_t threshold =
      GenericUdfExpected(Random(100).Bytes(1000), 0, 1, 0);
  QueryResult r = ExpectSameRows(StringPrintf(
      "SELECT length(b) FROM r WHERE g_ic(b, 0, 1, 0) >= %lld",
      static_cast<long long>(threshold)));
  EXPECT_GE(r.rows.size(), 1u);
  EXPECT_LE(r.rows.size(), static_cast<size_t>(kRows));
  EXPECT_GE(ParallelQueries(r), 1u);
}

TEST_F(ParallelTest, OrderByLimitAndAggregatesRunParallel) {
  // Order-, limit- and aggregate-shaped plans ride the morsel path too, and
  // must stay byte-identical to the serial database. ORDER BY length(b) is
  // all ties (every row is 1000 bytes), so the run merge must reproduce the
  // serial scan-position tie-break exactly — DESC means reversed scan order.
  QueryResult ordered =
      ExpectSameRows("SELECT length(b) FROM r ORDER BY length(b) DESC");
  EXPECT_GE(ParallelQueries(ordered), 1u);
  EXPECT_GE(MetricDelta(ordered, "exec.sort.parallel_queries"), 1u);

  // A scan under LIMIT runs as one stream: the serial plan, with its UDF
  // calls and page fetches, and no morsel.
  const char* limit_sql = "SELECT length(b) FROM r LIMIT 7";
  QueryResult serial_limited = MustExecute(serial_db_.get(), limit_sql);
  QueryResult limited = ExpectSameRows(limit_sql);
  EXPECT_EQ(ParallelQueries(limited), 0u);
  EXPECT_EQ(limited.rows.size(), 7u);
  EXPECT_EQ(MetricDelta(limited, "udf.cpp.invocations"),
            MetricDelta(serial_limited, "udf.cpp.invocations"));
  EXPECT_EQ(MetricDelta(limited, "storage.bufferpool.hits") +
                MetricDelta(limited, "storage.bufferpool.misses"),
            MetricDelta(serial_limited, "storage.bufferpool.hits") +
                MetricDelta(serial_limited, "storage.bufferpool.misses"));

  // Aggregates build per-morsel partial hash tables merged in morsel order.
  QueryResult agg = ExpectSameRows("SELECT COUNT(*) FROM r");
  EXPECT_GE(ParallelQueries(agg), 1u);
  EXPECT_GE(MetricDelta(agg, "exec.agg.parallel_queries"), 1u);
  EXPECT_GE(MetricDelta(agg, "exec.agg.partial_merges"), 1u);
}

TEST_F(ParallelTest, AggregationMatchesSerialAcrossDesigns) {
  JAGUAR_REQUIRE_THREADS(4);
  JAGUAR_REQUIRE_FORK();  // isolated designs spawn executor children
  RegisterGenericOnBoth("g_ic", UdfLanguage::kNativeIsolated);
  RegisterGenericOnBoth("g_jni", UdfLanguage::kJJava);
  RegisterGenericOnBoth("g_sfi", UdfLanguage::kNativeSfi);
  RegisterGenericOnBoth("g_ijni", UdfLanguage::kJJavaIsolated);

  // UDFs in both the group key and an aggregate argument: each design's
  // calls cross once per batch inside every worker, partial hash tables
  // merge in morsel order, and output must be byte-identical to serial
  // (integer sums, so even float-free of the merge-order caveat).
  for (const char* name :
       {"generic_udf", "g_ic", "g_jni", "g_sfi", "g_ijni"}) {
    QueryResult r = ExpectSameRows(StringPrintf(
        "SELECT %s(b, 8, 2, 0) %% 5, COUNT(*), SUM(%s(b, 12, 1, 0)), "
        "MIN(length(b)) FROM r GROUP BY %s(b, 8, 2, 0) %% 5",
        name, name, name));
    EXPECT_GE(ParallelQueries(r), 1u) << name;
    EXPECT_GE(MetricDelta(r, "exec.agg.parallel_queries"), 1u) << name;
  }

  // Aggregation composes with ORDER BY + LIMIT on the parallel path: the
  // aggregate output is sorted by the aliased count column, top-k bounded.
  QueryResult composed = ExpectSameRows(
      "SELECT generic_udf(b, 8, 2, 0) % 5 AS k, COUNT(*) AS n FROM r "
      "GROUP BY generic_udf(b, 8, 2, 0) % 5 ORDER BY n DESC LIMIT 3");
  EXPECT_LE(composed.rows.size(), 3u);
  EXPECT_GE(MetricDelta(composed, "exec.sort.topk_queries"), 1u);
}

TEST_F(ParallelTest, SortMatchesSerialAcrossDesigns) {
  JAGUAR_REQUIRE_THREADS(4);
  JAGUAR_REQUIRE_FORK();
  RegisterGenericOnBoth("g_ic", UdfLanguage::kNativeIsolated);
  RegisterGenericOnBoth("g_jni", UdfLanguage::kJJava);
  RegisterGenericOnBoth("g_sfi", UdfLanguage::kNativeSfi);
  RegisterGenericOnBoth("g_ijni", UdfLanguage::kJJavaIsolated);

  for (const char* name :
       {"generic_udf", "g_ic", "g_jni", "g_sfi", "g_ijni"}) {
    // Full sort on a UDF key (distinct values), morsel runs k-way merged.
    QueryResult full = ExpectSameRows(StringPrintf(
        "SELECT length(b), %s(b, 6, 1, 0) FROM r ORDER BY %s(b, 9, 2, 0) "
        "DESC",
        name, name));
    EXPECT_GE(MetricDelta(full, "exec.sort.parallel_queries"), 1u) << name;
    EXPECT_GE(MetricDelta(full, "exec.sort.runs_merged"), 1u) << name;

    // Bounded top-k on an all-ties key: the kept 13 must be the serial
    // scan's first 13, across per-morsel bounded heaps + merge.
    QueryResult topk = ExpectSameRows(StringPrintf(
        "SELECT %s(b, 5, 1, 0) FROM r ORDER BY length(b) LIMIT 13", name));
    EXPECT_EQ(topk.rows.size(), 13u) << name;
    EXPECT_GE(MetricDelta(topk, "exec.sort.topk_queries"), 1u) << name;
  }
}

TEST(ParallelTransportABTest, IsolatedCppMatchesInProcessCppByteForByte) {
  JAGUAR_REQUIRE_FORK();
  // The ring carries a parallel isolated-UDF query without changing a byte:
  // under the same 4-worker morsel schedule, IC++ returns exactly the rows
  // the in-process C++ design returns for the same function. No
  // hardware-thread guard: oversubscribing one core still exercises the
  // interleavings (and parks the ring more often, not less).
  RegisterGenericUdfs();
  std::map<UdfLanguage, QueryResult> results;
  for (UdfLanguage language :
       {UdfLanguage::kNativeIsolated, UdfLanguage::kNative}) {
    TempDb db_file(language == UdfLanguage::kNative ? "transport_ab_cpp"
                                                    : "transport_ab_icpp");
    DatabaseOptions options;
    options.vectorized_execution = true;
    options.batch_size = 16;
    options.num_workers = 4;
    auto db = Database::Open(db_file.path(), options).value();
    ASSERT_TRUE(db->Execute("CREATE TABLE r (b BYTEARRAY)").ok());
    for (int i = 0; i < 48; ++i) {
      ASSERT_TRUE(db->Execute(StringPrintf(
                                  "INSERT INTO r VALUES (randbytes(600, %d))",
                                  500 + i))
                      .ok());
    }
    UdfInfo info;
    info.name = "g_ab";
    info.language = language;
    info.return_type = TypeId::kInt;
    info.arg_types = {TypeId::kBytes, TypeId::kInt, TypeId::kInt,
                      TypeId::kInt};
    info.impl_name = "generic_udf";
    ASSERT_TRUE(db->RegisterUdf(info).ok());
    // 1 callback per row: the designs also agree through the suspend-resume
    // interleaving.
    Result<QueryResult> r = db->Execute("SELECT g_ab(b, 15, 2, 1) FROM r");
    ASSERT_TRUE(r.ok()) << r.status();
    results[language] = std::move(*r);
  }
  const QueryResult& isolated = results.at(UdfLanguage::kNativeIsolated);
  const QueryResult& in_process = results.at(UdfLanguage::kNative);
  ASSERT_EQ(isolated.rows.size(), in_process.rows.size());
  ASSERT_EQ(isolated.rows.size(), 48u);
  for (size_t i = 0; i < isolated.rows.size(); ++i) {
    EXPECT_EQ(Slice(isolated.rows[i].Serialize()).ToString(),
              Slice(in_process.rows[i].Serialize()).ToString())
        << "row " << i;
  }
}

// ---------------------------------------------------------------------------
// Concurrent InvokeBatch on one shared runner
// ---------------------------------------------------------------------------

std::vector<std::vector<Value>> MakeGenericBatch(int rows, int seed_base) {
  std::vector<std::vector<Value>> batch;
  for (int i = 0; i < rows; ++i) {
    batch.push_back({Value::Bytes(Random(seed_base + i).Bytes(200)),
                     Value::Int(30), Value::Int(2), Value::Int(0)});
  }
  return batch;
}

void ExpectGenericBatchResults(const std::vector<Value>& results,
                               int seed_base) {
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].AsInt(),
              GenericUdfExpected(
                  Random(seed_base + static_cast<int>(i)).Bytes(200), 30, 2,
                  0))
        << "row " << i;
  }
}

TEST(ConcurrentRunnerTest, PooledIsolatedRunnerServesParallelBatches) {
  JAGUAR_REQUIRE_THREADS(4);
  JAGUAR_REQUIRE_FORK();
  RegisterGenericUdfs();
  auto runner =
      IsolatedNativeRunner::Spawn(
          "generic_udf", TypeId::kInt,
          {TypeId::kBytes, TypeId::kInt, TypeId::kInt, TypeId::kInt},
          1 << 20, /*pool_size=*/4)
          .value();
  ASSERT_TRUE(runner->Prewarm(4).ok());
  ASSERT_EQ(runner->executor_pids().size(), 4u);

  constexpr int kThreads = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      UdfContext ctx(nullptr);
      for (int round = 0; round < 3; ++round) {
        const int seed_base = 1000 * (t + 1) + 10 * round;
        auto batch = MakeGenericBatch(8, seed_base);
        Result<std::vector<Value>> r = runner->InvokeBatch(batch, &ctx);
        if (!r.ok() || r->size() != batch.size()) {
          ++failures;
          continue;
        }
        ExpectGenericBatchResults(*r, seed_base);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(runner->executor_pids().size(), 4u);
}

TEST(ConcurrentRunnerTest, SharedJvmRunnerServesParallelInvocations) {
  JAGUAR_REQUIRE_THREADS(4);
  // One JagVM, one runner, four threads: exercises the VM's JIT cache,
  // method-resolution caches and stats under concurrency.
  TempDb db_file("parallel_vm");
  auto db = Database::Open(db_file.path()).value();

  UdfInfo info;
  info.name = "g";
  info.language = UdfLanguage::kJJava;
  info.return_type = TypeId::kInt;
  info.arg_types = {TypeId::kBytes, TypeId::kInt, TypeId::kInt, TypeId::kInt};
  info.impl_name = "GenericUdf.run";
  info.payload = jjc::Compile(GenericUdfJJavaSource()).value().Serialize();
  auto runner = JvmUdfRunner::Create(db->vm(), info, {}).value();

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      UdfContext ctx(nullptr);
      const int seed_base = 2000 * (t + 1);
      auto batch = MakeGenericBatch(6, seed_base);
      Result<std::vector<Value>> r = runner->InvokeBatch(batch, &ctx);
      if (!r.ok() || r->size() != batch.size()) {
        ++failures;
        return;
      }
      ExpectGenericBatchResults(*r, seed_base);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// ---------------------------------------------------------------------------
// ExecutorPool: leasing, death isolation, respawn
// ---------------------------------------------------------------------------

Status EchoHandler(Slice request, ipc::Channel* channel) {
  return channel->SendToParent(ipc::MsgType::kResult, request);
}

Result<std::vector<uint8_t>> NoCallbacks(Slice) {
  return Internal("no callbacks expected");
}

TEST(ExecutorPoolTest, DeadLeaseFailsAloneAndPoolRespawns) {
  JAGUAR_REQUIRE_FORK();
  ExecutorPool pool(
      [] { return ipc::RemoteExecutor::Spawn(4096, &EchoHandler); }, 2);
  pool.set_timeout_seconds(1);
  ASSERT_TRUE(pool.Prewarm(2).ok());
  EXPECT_EQ(pool.live_count(), 2u);

  auto l1 = pool.Acquire().value();
  auto l2 = pool.Acquire().value();
  ASSERT_NE(l1->child_pid(), l2->child_pid());
  const pid_t dead_pid = l2->child_pid();
  kill(dead_pid, SIGKILL);

  // The healthy lease keeps working while its sibling is dead.
  auto ok = l1->Execute(Slice("ping"), &NoCallbacks);
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(Slice(*ok).ToString(), "ping");

  // The dead lease fails with IoError — only this leaseholder is affected.
  EXPECT_TRUE(l2->Execute(Slice("ping"), &NoCallbacks).status().IsIoError());
  l2.Discard();
  EXPECT_EQ(pool.live_count(), 1u);

  // The freed slot respawns a fresh child on demand.
  auto l3 = pool.Acquire().value();
  EXPECT_GT(l3->child_pid(), 0);
  EXPECT_NE(l3->child_pid(), dead_pid);
  auto ok3 = l3->Execute(Slice("pong"), &NoCallbacks);
  ASSERT_TRUE(ok3.ok()) << ok3.status();
  EXPECT_EQ(Slice(*ok3).ToString(), "pong");
  EXPECT_EQ(pool.live_count(), 2u);
}

TEST(ExecutorPoolTest, AcquireBlocksAtCapUntilALeaseReturns) {
  JAGUAR_REQUIRE_FORK();
  obs::Counter* waits =
      obs::MetricsRegistry::Global()->GetCounter("udf.pool.waits");
  const uint64_t waits_before = waits->value();

  ExecutorPool pool(
      [] { return ipc::RemoteExecutor::Spawn(4096, &EchoHandler); }, 1);
  auto held = pool.Acquire().value();
  const pid_t only_pid = held->child_pid();

  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    auto lease = pool.Acquire().value();
    acquired.store(true);
    EXPECT_EQ(lease->child_pid(), only_pid);  // same executor, recycled
  });
  // The waiter cannot get a lease while we hold the only executor.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(acquired.load());
  { ExecutorPool::Lease release = std::move(held); }  // hand it back
  waiter.join();
  EXPECT_TRUE(acquired.load());
  EXPECT_GE(waits->value(), waits_before + 1);
}

// ---------------------------------------------------------------------------
// Runner-level death handling through the pool
// ---------------------------------------------------------------------------

TEST(ConcurrentRunnerTest, KilledPooledExecutorsFailBatchesThenRespawn) {
  JAGUAR_REQUIRE_FORK();
  RegisterGenericUdfs();
  auto runner =
      IsolatedNativeRunner::Spawn(
          "generic_udf", TypeId::kInt,
          {TypeId::kBytes, TypeId::kInt, TypeId::kInt, TypeId::kInt},
          1 << 20, /*pool_size=*/2)
          .value();
  ASSERT_TRUE(runner->Prewarm(2).ok());
  runner->set_ipc_timeout_seconds(1);
  std::vector<pid_t> pids = runner->executor_pids();
  ASSERT_EQ(pids.size(), 2u);
  for (pid_t p : pids) kill(p, SIGKILL);

  // Each dead executor fails exactly the batch that leased it, then is
  // discarded from the pool.
  UdfContext ctx(nullptr);
  auto batch = MakeGenericBatch(4, 4000);
  EXPECT_TRUE(runner->InvokeBatch(batch, &ctx).status().IsIoError());
  EXPECT_TRUE(runner->InvokeBatch(batch, &ctx).status().IsIoError());
  EXPECT_EQ(runner->child_pid(), -1);  // pool fully drained

  // The next batch respawns a fresh executor and succeeds.
  Result<std::vector<Value>> r = runner->InvokeBatch(batch, &ctx);
  ASSERT_TRUE(r.ok()) << r.status();
  ExpectGenericBatchResults(*r, 4000);
  const pid_t fresh = runner->child_pid();
  EXPECT_GT(fresh, 0);
  for (pid_t p : pids) EXPECT_NE(fresh, p);
}

// ---------------------------------------------------------------------------
// Metrics registry under concurrent writers (parallel workers share it)
// ---------------------------------------------------------------------------

TEST(MetricsConcurrencyTest, SnapshotsAreSafeUnderConcurrentWriters) {
  JAGUAR_REQUIRE_THREADS(4);
  obs::MetricsRegistry* reg = obs::MetricsRegistry::Global();
  const obs::MetricsSnapshot before = reg->Snapshot("test.parallel.");

  constexpr int kWriters = 4;
  constexpr int kAddsPerWriter = 20000;
  std::atomic<bool> done{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      // Mix registration (name lookup under the registry mutex) with hot
      // relaxed-atomic updates, like parallel scan workers do.
      obs::Counter* c =
          reg->GetCounter("test.parallel.c" + std::to_string(w % 2));
      obs::Histogram* h = reg->GetHistogram("test.parallel.h");
      for (int i = 0; i < kAddsPerWriter; ++i) {
        c->Add();
        h->Record(static_cast<uint64_t>(i));
      }
    });
  }
  std::thread reader([&] {
    // Snapshots taken mid-write must never tear; values are monotone.
    uint64_t last = 0;
    while (!done.load()) {
      obs::MetricsSnapshot now = reg->Snapshot("test.parallel.");
      obs::MetricsSnapshot delta = obs::SnapshotDelta(before, now);
      uint64_t total = 0;
      for (const auto& [name, value] : delta) {
        if (name == "test.parallel.c0" || name == "test.parallel.c1") {
          total += value;
        }
      }
      EXPECT_GE(total, last);
      last = total;
    }
  });
  for (std::thread& t : writers) t.join();
  done.store(true);
  reader.join();

  obs::MetricsSnapshot delta =
      obs::SnapshotDelta(before, reg->Snapshot("test.parallel."));
  EXPECT_EQ(delta["test.parallel.c0"] + delta["test.parallel.c1"],
            uint64_t{kWriters} * kAddsPerWriter);
  EXPECT_EQ(delta["test.parallel.h.count"],
            uint64_t{kWriters} * kAddsPerWriter);
}

}  // namespace
}  // namespace jaguar
