// Unit tests for src/exec: binding, expression evaluation (three-valued
// logic, coercions), and the pipeline every SELECT runs — its record loop,
// sources and sinks, tuple at a time and batched — tested directly, below
// the engine facade; then, through the engine, the exact UDF call sequence
// of each statement shape in both engines.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/database.h"
#include "exec/aggregate.h"
#include "exec/expression.h"
#include "exec/index_scan.h"
#include "exec/operators.h"
#include "exec/parallel.h"
#include "index/btree.h"
#include "obs/metrics.h"
#include "sql/parser.h"
#include "storage/storage_engine.h"
#include "temp_db.h"

namespace jaguar {
namespace exec {
namespace {

Schema TestSchema() {
  return Schema({{"a", TypeId::kInt},
                 {"b", TypeId::kDouble},
                 {"s", TypeId::kString},
                 {"blob", TypeId::kBytes}});
}

Tuple TestTuple() {
  return Tuple({Value::Int(7), Value::Double(2.5), Value::String("hi"),
                Value::Bytes({1, 2, 3})});
}

/// Parses, binds against the test schema, evaluates against the test tuple.
Result<Value> EvalText(const std::string& text,
                       UdfResolver* resolver = nullptr) {
  JAGUAR_ASSIGN_OR_RETURN(sql::ExprPtr expr, sql::ParseExpression(text));
  JAGUAR_ASSIGN_OR_RETURN(BoundExprPtr bound,
                          Bind(*expr, TestSchema(), "t", "T", resolver));
  const Tuple row = TestTuple();
  std::vector<Value> values;
  JAGUAR_RETURN_IF_ERROR(Evaluator().EvalRows({bound.get()}, &row, 1,
                                              /*batched=*/false, nullptr,
                                              &values));
  return values[0];
}

TEST(ExpressionTest, ColumnsAndArithmetic) {
  EXPECT_EQ(EvalText("a + 1").value().AsInt(), 8);
  EXPECT_EQ(EvalText("a * a - 9").value().AsInt(), 40);
  EXPECT_DOUBLE_EQ(EvalText("b * 2").value().AsDouble(), 5.0);
  // Mixed int/double arithmetic widens.
  EXPECT_DOUBLE_EQ(EvalText("a + b").value().AsDouble(), 9.5);
  EXPECT_EQ(EvalText("-a").value().AsInt(), -7);
  EXPECT_EQ(EvalText("a % 4").value().AsInt(), 3);
}

TEST(ExpressionTest, QualifiedColumns) {
  EXPECT_EQ(EvalText("T.a").value().AsInt(), 7);
  EXPECT_EQ(EvalText("t.a").value().AsInt(), 7);  // table name works too
  EXPECT_TRUE(EvalText("X.a").status().IsInvalidArgument());
}

TEST(ExpressionTest, Comparisons) {
  EXPECT_TRUE(EvalText("a = 7").value().AsBool());
  EXPECT_TRUE(EvalText("a <> 8").value().AsBool());
  EXPECT_TRUE(EvalText("b < a").value().AsBool());
  EXPECT_TRUE(EvalText("s = 'hi'").value().AsBool());
  EXPECT_FALSE(EvalText("s < 'aa'").value().AsBool());
  // Cross-family comparisons fail cleanly.
  EXPECT_FALSE(EvalText("s > 5").ok());
}

TEST(ExpressionTest, ThreeValuedLogic) {
  // NULL propagates through arithmetic; comparisons yield NULL.
  EXPECT_TRUE(EvalText("NULL + 1").value().is_null());
  EXPECT_TRUE(EvalText("a = NULL").value().is_null());
  // AND/OR short-circuit around NULL per SQL: NULL AND TRUE is NULL, but
  // FALSE AND NULL is FALSE (false dominates).
  EXPECT_TRUE(EvalText("(a = NULL) AND (a = 7)").value().is_null());
  EXPECT_EQ(EvalText("(a = 8) AND (a = NULL)").value().AsBool(), false);
  EXPECT_EQ(EvalText("(a = 7) OR (a = NULL)").value().AsBool(), true);
  EXPECT_TRUE(EvalText("(a = NULL) OR (a = NULL)").value().is_null());
  EXPECT_TRUE(EvalText("NOT (a = NULL)").value().is_null());
}

TEST(ExpressionTest, BindErrors) {
  EXPECT_TRUE(EvalText("missing_col").status().IsNotFound());
  EXPECT_TRUE(EvalText("s + 1").status().IsInvalidArgument());
  EXPECT_TRUE(EvalText("-s").status().IsInvalidArgument());
  // Function calls need a resolver.
  EXPECT_TRUE(EvalText("f(a)").status().IsNotSupported());
}

TEST(ExpressionTest, FilterKeepsOnlyTrueRows) {
  auto check = [](const std::string& text) -> Result<bool> {
    auto expr = sql::ParseExpression(text).value();
    JAGUAR_ASSIGN_OR_RETURN(BoundExprPtr bound,
                            Bind(*expr, TestSchema(), "t", "", nullptr));
    const Tuple row = TestTuple();
    Selection sel = {0};
    JAGUAR_RETURN_IF_ERROR(Evaluator().Filter(*bound, &row, /*batched=*/false,
                                              nullptr, &sel));
    return !sel.empty();
  };
  EXPECT_TRUE(check("a > 3").value());
  EXPECT_FALSE(check("a > 30").value());
  // NULL predicate counts as false.
  EXPECT_FALSE(check("a = NULL").value());
  // Non-boolean WHERE is an error.
  EXPECT_TRUE(check("a + 1").status().IsInvalidArgument());
}

/// A native-design stand-in for a UDF `name(INT) -> INT`: returns its
/// argument and records each per-row call and the size of each batch
/// crossing. With a `log`, it also appends every per-row call as
/// `name(arg)` and every batch crossing as `name[arg arg ...]`.
class RecordingRunner : public UdfRunner {
 public:
  explicit RecordingRunner(std::string name = "f",
                           std::vector<std::string>* log = nullptr)
      : name_(std::move(name)), log_(log) {}

  std::string design_label() const override { return "C++"; }

  void Reset() {
    row_calls = 0;
    batches.clear();
  }

  size_t row_calls = 0;
  std::vector<size_t> batches;

 protected:
  Result<Value> DoInvoke(const std::vector<Value>& args,
                         UdfContext*) override {
    ++row_calls;
    if (log_ != nullptr) {
      log_->push_back(name_ + "(" + args[0].ToString() + ")");
    }
    return args[0];
  }
  Result<std::vector<Value>> DoInvokeBatch(
      const std::vector<std::vector<Value>>& args_batch,
      UdfContext*) override {
    batches.push_back(args_batch.size());
    std::vector<Value> out;
    std::string crossing = name_ + "[";
    for (const std::vector<Value>& args : args_batch) {
      out.push_back(args[0]);
      if (crossing.back() != '[') crossing += " ";
      crossing += args[0].ToString();
    }
    if (log_ != nullptr) log_->push_back(crossing + "]");
    return out;
  }

 private:
  std::string name_;
  std::vector<std::string>* log_;
};

class RecordingResolver : public UdfResolver {
 public:
  Result<UdfRunner*> Resolve(const std::string& name, TypeId* return_type,
                             std::vector<TypeId>* arg_types) override {
    if (name != "f") return NotFound("no UDF " + name);
    *return_type = TypeId::kInt;
    *arg_types = {TypeId::kInt};
    return &runner;
  }

  RecordingRunner runner;
};

/// The pipeline (exec/parallel.h) below the engine facade, over a 10-row
/// table t (id INT, name STRING) and an index on id. Every plan runs over
/// the two sources a SELECT can have: the heap chain, with the WHERE clause
/// in the record loop, and a record list — a `Fetch` cursor over every
/// record id, probed from the index in id order — with the same predicate
/// as the index residual.
class OperatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = StorageEngine::Open(db_.path()).value();
    first_page_ = TableHeap::Create(engine_.get()).value();
    pick_.root = BTree::Create(engine_.get()).value();
    TableHeap heap(engine_.get(), first_page_);
    BTree index(engine_.get(), pick_.root);
    schema_ = Schema({{"id", TypeId::kInt}, {"name", TypeId::kString}});
    for (int i = 0; i < 10; ++i) {
      Tuple t({Value::Int(i), Value::String("row" + std::to_string(i))});
      rids_.push_back(heap.Insert(Slice(t.Serialize())).value());
      ASSERT_TRUE(index.Insert(Value::Int(i), rids_.back()).ok());
    }
  }
  void TearDown() override {
    engine_->Close().ok();
    engine_.reset();
  }

  BoundExprPtr BindText(const std::string& text) {
    auto expr = sql::ParseExpression(text).value();
    return Bind(*expr, schema_, "t", "", &resolver_).value();
  }

  struct Run {
    bool record_list = false;
    bool batched = false;
    size_t batch_size = 256;
    size_t workers = 1;
    int64_t limit = -1;
  };

  /// Runs a collect plan: `where` (none when empty) inside the record loop,
  /// then the projection `exprs`.
  Result<std::vector<Tuple>> Collect(const std::string& where,
                                     const std::vector<std::string>& exprs,
                                     const Run& run) {
    BoundExprPtr predicate = where.empty() ? nullptr : BindText(where);
    std::vector<BoundExprPtr> out;
    ColumnMask reads;
    for (const std::string& e : exprs) {
      out.push_back(BindText(e));
      CollectColumns(*out.back(), &reads);
    }
    const ScanSpec spec = ScanSpec::Make(predicate.get(), reads);
    UdfContext ctx(nullptr);
    Pipeline p;
    p.engine = engine_.get();
    p.first_page = first_page_;
    p.pick = run.record_list ? &pick_ : nullptr;
    p.scan = &spec;
    p.batched = run.batched;
    p.batch_size = run.batch_size;
    p.num_workers = run.workers;
    p.out_exprs = &out;
    p.limit = run.limit;
    p.ctx = &ctx;
    return RunPipeline(p);
  }

  static std::vector<std::string> Strings(const std::vector<Tuple>& rows) {
    std::vector<std::string> out;
    for (const Tuple& t : rows) out.push_back(t.ToString());
    return out;
  }

  TempDb db_{"exec"};
  RecordingResolver resolver_;
  std::unique_ptr<StorageEngine> engine_;
  PageId first_page_ = kInvalidPageId;
  IndexPick pick_;  ///< Every key: the whole table, in id order.
  std::vector<RecordId> rids_;
  Schema schema_;
};

TEST_F(OperatorTest, SeqScanYieldsAllTuples) {
  for (bool record_list : {false, true}) {
    for (bool batched : {false, true}) {
      SCOPED_TRACE(std::string(record_list ? "record list" : "heap") +
                   (batched ? ", batched" : ", tuple at a time"));
      Run run;
      run.record_list = record_list;
      run.batched = batched;
      std::vector<Tuple> rows = Collect("", {"id", "name"}, run).value();
      ASSERT_EQ(rows.size(), 10u);
      for (int i = 0; i < 10; ++i) EXPECT_EQ(rows[i].value(0).AsInt(), i);
      // A plan runs again from the start of its source.
      EXPECT_EQ(Strings(Collect("", {"id", "name"}, run).value()),
                Strings(rows));
    }
  }
}

TEST_F(OperatorTest, FilterProjectsLimitPipeline) {
  // The WHERE clause inside the heap scan, and as the residual over the
  // record list.
  for (bool record_list : {false, true}) {
    for (bool batched : {false, true}) {
      SCOPED_TRACE(std::string(record_list ? "record list" : "heap") +
                   (batched ? ", batched" : ", tuple at a time"));
      Run run;
      run.record_list = record_list;
      run.batched = batched;
      run.limit = 3;
      std::vector<Tuple> rows =
          Collect("id % 2 = 0", {"id * 100"}, run).value();
      std::vector<int64_t> got;
      for (const Tuple& t : rows) got.push_back(t.value(0).AsInt());
      EXPECT_EQ(got, (std::vector<int64_t>{0, 200, 400}));
    }
  }
}

TEST_F(OperatorTest, LimitZeroAndOverLimit) {
  obs::Counter* probes =
      obs::MetricsRegistry::Global()->GetCounter("exec.index.scans");
  for (bool record_list : {false, true}) {
    for (bool batched : {false, true}) {
      SCOPED_TRACE(std::string(record_list ? "record list" : "heap") +
                   (batched ? ", batched" : ", tuple at a time"));
      Run run;
      run.record_list = record_list;
      run.batched = batched;
      run.limit = 0;
      const uint64_t probes_before = probes->value();
      EXPECT_TRUE(Collect("", {"id"}, run).value().empty());
      // LIMIT 0 opens no source: no index probe.
      EXPECT_EQ(probes->value(), probes_before);
      run.limit = 100;
      EXPECT_EQ(Collect("", {"id"}, run).value().size(), 10u);
    }
  }
}

TEST_F(OperatorTest, NextBatchMatchesScalarAcrossBatchSizes) {
  // The batch protocol must yield exactly the tuple-at-a-time rows, in
  // order, for batch sizes of 1, a non-divisor of both the table and
  // intermediate cardinalities, and far beyond the row count — over both
  // sources, and over the heap run as morsels by 4 workers. A UDF in the
  // projection is called once per row tuple at a time, and once per batch
  // of at most the batch size under the batch protocol.
  const std::vector<std::string> exprs = {"f(id * 100)", "name"};
  for (bool record_list : {false, true}) {
    SCOPED_TRACE(record_list ? "record list" : "heap");
    resolver_.runner.Reset();
    Run scalar;
    scalar.record_list = record_list;
    const std::vector<std::string> scalar_rows =
        Strings(Collect("id % 2 = 0", exprs, scalar).value());
    ASSERT_EQ(scalar_rows.size(), 5u);
    EXPECT_EQ(resolver_.runner.row_calls, 5u);
    EXPECT_TRUE(resolver_.runner.batches.empty());

    for (size_t workers : {size_t{1}, size_t{4}}) {
      if (record_list && workers > 1) continue;
      for (size_t batch_size : {size_t{1}, size_t{3}, size_t{256}}) {
        SCOPED_TRACE("batch size " + std::to_string(batch_size) + ", " +
                     std::to_string(workers) + " workers");
        resolver_.runner.Reset();
        Run run = scalar;
        run.batched = true;
        run.batch_size = batch_size;
        run.workers = workers;
        EXPECT_EQ(Strings(Collect("id % 2 = 0", exprs, run).value()),
                  scalar_rows);
        EXPECT_EQ(resolver_.runner.row_calls, 0u);
        size_t crossed = 0;
        for (size_t n : resolver_.runner.batches) {
          EXPECT_GE(n, 1u);
          EXPECT_LE(n, batch_size);
          crossed += n;
        }
        EXPECT_EQ(crossed, 5u);
      }
    }
  }
}

TEST_F(OperatorTest, NextBatchRespectsLimitAndTail) {
  // LIMIT 7 over 10 rows with batch size 4: batches of 4, then 3 (clamped
  // at the limit) — the non-divisor tail case. No record past the limit
  // is read.
  obs::Counter* scanned =
      obs::MetricsRegistry::Global()->GetCounter("exec.seqscan.tuples");
  for (bool record_list : {false, true}) {
    SCOPED_TRACE(record_list ? "record list" : "heap");
    resolver_.runner.Reset();
    Run run;
    run.record_list = record_list;
    run.batched = true;
    run.batch_size = 4;
    run.limit = 7;
    const uint64_t scanned_before = scanned->value();
    std::vector<Tuple> rows = Collect("", {"f(id)"}, run).value();
    EXPECT_EQ(resolver_.runner.batches, (std::vector<size_t>{4, 3}));
    ASSERT_EQ(rows.size(), 7u);
    for (int i = 0; i < 7; ++i) EXPECT_EQ(rows[i].value(0).AsInt(), i);
    EXPECT_EQ(scanned->value() - scanned_before, record_list ? 0u : 7u);
  }
}

TEST_F(OperatorTest, NextBatchErrorPropagates) {
  // 1 / (id - 5): division by zero on row 5, in the heap scan's WHERE
  // clause (serial, and as morsels) and in the record list's residual.
  for (bool record_list : {false, true}) {
    for (size_t workers : {size_t{1}, size_t{4}}) {
      if (record_list && workers > 1) continue;
      SCOPED_TRACE(std::string(record_list ? "record list" : "heap") + ", " +
                   std::to_string(workers) + " workers");
      Run run;
      run.record_list = record_list;
      run.batched = true;
      run.batch_size = 4;
      run.workers = workers;
      EXPECT_TRUE(Collect("1 / (id - 5) > 0", {"id"}, run)
                      .status()
                      .IsRuntimeError());
    }
  }
}

TEST_F(OperatorTest, FilterErrorPropagates) {
  // 1 / (id - 5): division by zero on row 5 surfaces as RuntimeError tuple
  // at a time too, from the heap scan's own WHERE clause and from the
  // residual over the record list.
  for (bool record_list : {false, true}) {
    SCOPED_TRACE(record_list ? "record list" : "heap");
    Run run;
    run.record_list = record_list;
    EXPECT_TRUE(Collect("1 / (id - 5) > 0", {"id"}, run)
                    .status()
                    .IsRuntimeError());
  }
}

TEST_F(OperatorTest, ScanDecodesOnlyTheColumnsThePlanReads) {
  // The predicate reads `name`, the plan above reads `id`: passing rows get
  // both, and nothing else is materialized — from the chain and from a
  // record list alike.
  BoundExprPtr predicate = BindText("name = 'row3' OR name = 'row8'");
  ColumnMask reads;
  reads.Add(0);
  const ScanSpec spec = ScanSpec::Make(predicate.get(), reads);
  TableHeap heap(engine_.get(), first_page_);
  for (bool record_list : {false, true}) {
    SCOPED_TRACE(record_list ? "record list" : "heap");
    HeapScan scan(record_list ? heap.Fetch(rids_) : heap.Scan(), &spec,
                  nullptr);
    std::vector<Tuple> rows;
    while (scan.Read(1, /*batched=*/false, &rows).value() > 0) {
    }
    EXPECT_EQ(Strings(rows),
              (std::vector<std::string>{"(3, 'row3')", "(8, 'row8')"}));
  }

  // No predicate and no column read (COUNT(*)): every row, all NULL.
  const ScanSpec count_spec = ScanSpec::Make(nullptr, ColumnMask());
  HeapScan count(heap.Scan(), &count_spec, nullptr);
  std::vector<Tuple> rows;
  ASSERT_EQ(count.Read(64, /*batched=*/true, &rows).value(), 10u);
  ASSERT_EQ(rows.size(), 10u);
  for (const Tuple& t : rows) EXPECT_EQ(t.ToString(), "(NULL, NULL)");

  // The aggregate sink over the same empty mask counts them.
  sql::Statement stmt = sql::Parse("SELECT COUNT(*) FROM t").value();
  AggregatePlan plan =
      PlanAggregate(stmt.select, schema_, "t", "", nullptr).value();
  UdfContext ctx(nullptr);
  Pipeline p;
  p.engine = engine_.get();
  p.first_page = first_page_;
  p.scan = &count_spec;
  p.aggregate = &plan;
  p.ctx = &ctx;
  EXPECT_EQ(Strings(RunPipeline(p).value()),
            (std::vector<std::string>{"(10)"}));
}

/// The UDF calls every statement shape makes, through the engine: `f` and
/// `g` (INT -> INT, each returning its argument) are recording runners, and
/// t (a INT, x INT, y INT) holds a = 0..5. Tuple at a time, each call is
/// logged as `f(a)`; under the batch protocol at batch size 4, each
/// crossing as `f[a a ...]`.
class CallSequenceTest : public ::testing::Test {
 protected:
  std::vector<std::string> Run(bool batched, const std::string& sql) {
    TempDb file(batched ? "call_sequence_batched" : "call_sequence_rows");
    DatabaseOptions options;
    options.vectorized_execution = batched;
    options.batch_size = 4;
    std::unique_ptr<Database> db = Database::Open(file.path(), options).value();
    std::vector<std::string> log;
    // The SFI design's runner factory stands in for the recording runners.
    db->udf_manager()->SetRunnerFactory(
        UdfLanguage::kNativeSfi,
        [&log](const UdfInfo& info) -> Result<std::unique_ptr<UdfRunner>> {
          return std::unique_ptr<UdfRunner>(
              std::make_unique<RecordingRunner>(info.name, &log));
        });
    for (const char* name : {"f", "g"}) {
      UdfInfo info;
      info.name = name;
      info.language = UdfLanguage::kNativeSfi;
      info.impl_name = name;
      info.return_type = TypeId::kInt;
      info.arg_types = {TypeId::kInt};
      EXPECT_TRUE(db->RegisterUdf(info).ok());
    }
    EXPECT_TRUE(db->Execute("CREATE TABLE t (a INT, x INT, y INT)").ok());
    EXPECT_TRUE(db->Execute("INSERT INTO t VALUES (0, 0, 0), (1, 0, 0), "
                            "(2, 0, 0), (3, 0, 0), (4, 0, 0), (5, 0, 0)")
                    .ok());
    Result<QueryResult> r = db->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status();
    return log;
  }

  void Expect(const std::string& sql, const std::vector<std::string>& rows,
              const std::vector<std::string>& batches) {
    SCOPED_TRACE(sql);
    EXPECT_EQ(Run(/*batched=*/false, sql), rows);
    EXPECT_EQ(Run(/*batched=*/true, sql), batches);
  }
};

TEST_F(CallSequenceTest, ProjectionWithTwoUdfs) {
  Expect("SELECT f(a), g(a) FROM t",
         {"f(0)", "g(0)", "f(1)", "g(1)", "f(2)", "g(2)", "f(3)", "g(3)",
          "f(4)", "g(4)", "f(5)", "g(5)"},
         {"f[0 1 2 3]", "g[0 1 2 3]", "f[4 5]", "g[4 5]"});
}

TEST_F(CallSequenceTest, NestedCalls) {
  Expect("SELECT f(g(a)) FROM t",
         {"g(0)", "f(0)", "g(1)", "f(1)", "g(2)", "f(2)", "g(3)", "f(3)",
          "g(4)", "f(4)", "g(5)", "f(5)"},
         {"g[0 1 2 3]", "f[0 1 2 3]", "g[4 5]", "f[4 5]"});
}

TEST_F(CallSequenceTest, UdfInWhereAndInTheProjection) {
  Expect("SELECT g(a) FROM t WHERE f(a) > 2",
         {"f(0)", "f(1)", "f(2)", "f(3)", "g(3)", "f(4)", "g(4)", "f(5)",
          "g(5)"},
         {"f[0 1 2 3]", "g[3]", "f[4 5]", "g[4 5]"});
}

TEST_F(CallSequenceTest, AndRunsItsRightSideOnlyOnOpenRows) {
  // Rows 3..5 are decided by `a < 3`; the second batch has no open row.
  Expect("SELECT a FROM t WHERE a < 3 AND f(a) > 0", {"f(0)", "f(1)", "f(2)"},
         {"f[0 1 2]"});
}

TEST_F(CallSequenceTest, OrRunsItsRightSideOnlyOnOpenRows) {
  Expect("SELECT a FROM t WHERE a < 3 OR f(a) > 0", {"f(3)", "f(4)", "f(5)"},
         {"f[3]", "f[4 5]"});
}

TEST_F(CallSequenceTest, UpdateFindsEveryRowBeforeItsSetClauseRuns) {
  Expect("UPDATE t SET x = f(a), y = g(a) WHERE f(a) > 0",
         {"f(0)", "f(1)", "f(2)", "f(3)", "f(4)", "f(5)", "f(1)", "g(1)",
          "f(2)", "g(2)", "f(3)", "g(3)", "f(4)", "g(4)", "f(5)", "g(5)"},
         {"f[0 1 2 3]", "f[4 5]", "f[1 2 3 4]", "g[1 2 3 4]", "f[5]",
          "g[5]"});
}

TEST_F(CallSequenceTest, DeleteWhere) {
  Expect("DELETE FROM t WHERE f(a) > 0",
         {"f(0)", "f(1)", "f(2)", "f(3)", "f(4)", "f(5)"},
         {"f[0 1 2 3]", "f[4 5]"});
}

TEST_F(CallSequenceTest, InsertValuesCallsEachUdfOncePerRow) {
  // Each VALUES row is bound on its own: one call per call node, batched
  // engine included.
  Expect("INSERT INTO t VALUES (f(1), 0, 0), (g(2), 0, 0)", {"f(1)", "g(2)"},
         {"f(1)", "g(2)"});
}

}  // namespace
}  // namespace exec
}  // namespace jaguar
