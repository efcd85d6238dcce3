// Unit tests for the aggregation (exec/aggregate) and sort (exec/sort)
// sinks, below the engine facade: partial-aggregator merges must equal a
// single-pass build, the pipeline's aggregate and sorted-run sinks must
// agree tuple at a time, across batch sizes and across morsels, the bounded
// top-k heap must equal the full sort's prefix, run merging must equal a
// single-run sort, and expired deadlines must cut the merge/finalize loops
// off.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "exec/aggregate.h"
#include "exec/parallel.h"
#include "exec/sort.h"
#include "obs/metrics.h"
#include "sql/parser.h"
#include "storage/storage_engine.h"
#include "storage/table_heap.h"
#include "temp_db.h"

namespace jaguar {
namespace exec {
namespace {

Schema RowSchema() {
  return Schema(
      {{"k", TypeId::kInt}, {"v", TypeId::kInt}, {"d", TypeId::kDouble}});
}

/// `n` rows cycling over 4 groups, with NULLs sprinkled into both aggregate
/// inputs so every test also covers NULL-skipping.
std::vector<Tuple> MakeRows(int n) {
  std::vector<Tuple> rows;
  rows.reserve(n);
  for (int i = 0; i < n; ++i) {
    Value v = (i % 7 == 0) ? Value::Null() : Value::Int(i * 3 % 17);
    Value d = (i % 5 == 0) ? Value::Null() : Value::Double(i * 0.5);
    rows.push_back(Tuple({Value::Int(i % 4), std::move(v), std::move(d)}));
  }
  return rows;
}

AggregatePlan MustPlan(const std::string& sql) {
  sql::Statement stmt = sql::Parse(sql).value();
  return PlanAggregate(stmt.select, RowSchema(), "t", "", nullptr).value();
}

std::vector<std::vector<uint8_t>> Serialized(const std::vector<Tuple>& rows) {
  std::vector<std::vector<uint8_t>> out;
  out.reserve(rows.size());
  for (const Tuple& t : rows) out.push_back(t.Serialize());
  return out;
}

/// Evaluates `plan`'s inputs over `rows` and folds them into `agg`, as the
/// pipeline's aggregate sink does.
Status Feed(HashAggregator* agg, const AggregatePlan& plan,
            const std::vector<Tuple>& rows, bool batched) {
  std::vector<Value> values;
  JAGUAR_RETURN_IF_ERROR(Evaluator().EvalRows(
      plan.Inputs(), rows.data(), rows.size(), batched, nullptr, &values));
  return agg->Consume(&values, rows.size());
}

constexpr const char* kGroupedSql =
    "SELECT k, COUNT(*), COUNT(v), SUM(v), AVG(d), MIN(v), MAX(d) "
    "FROM t GROUP BY k";

TEST(AggregateUnitTest, PartialMergeMatchesSinglePass) {
  AggregatePlan plan = MustPlan(kGroupedSql);
  std::vector<Tuple> rows = MakeRows(100);

  HashAggregator single(&plan);
  for (const Tuple& t : rows) {
    ASSERT_TRUE(Feed(&single, plan, {t}, /*batched=*/false).ok());
  }
  std::vector<std::vector<uint8_t>> expect =
      Serialized(single.Finalize(nullptr).value());
  ASSERT_EQ(expect.size(), 4u);

  // Split the same rows into contiguous chunks — the morsel shape — build a
  // partial aggregator per chunk, and merge them in chunk order.
  for (size_t parts : {size_t{2}, size_t{3}, size_t{7}}) {
    std::vector<HashAggregator> partials;
    for (size_t p = 0; p < parts; ++p) partials.emplace_back(&plan);
    for (size_t i = 0; i < rows.size(); ++i) {
      size_t p = i * parts / rows.size();
      ASSERT_TRUE(Feed(&partials[p], plan, {rows[i]}, /*batched=*/true).ok());
    }
    for (size_t p = 1; p < parts; ++p) {
      ASSERT_TRUE(partials[0].MergeFrom(&partials[p], nullptr).ok());
      EXPECT_EQ(partials[p].num_groups(), 0u);  // drained
    }
    EXPECT_EQ(Serialized(partials[0].Finalize(nullptr).value()), expect)
        << parts << " partials";
  }
}

/// Rows of the heap-backed tests: enough chain pages for several morsels.
constexpr int kHeapRows = 1500;

/// `rows` stored in a table heap of RowSchema(), for plans that run the
/// whole pipeline (exec/parallel.h) over them.
class RowTable {
 public:
  explicit RowTable(const std::vector<Tuple>& rows) : db_("agg_sort") {
    engine_ = StorageEngine::Open(db_.path()).value();
    first_page_ = TableHeap::Create(engine_.get()).value();
    TableHeap heap(engine_.get(), first_page_);
    for (const Tuple& t : rows) {
      EXPECT_TRUE(heap.Insert(Slice(t.Serialize())).ok());
    }
  }
  ~RowTable() { engine_->Close().ok(); }

  /// Runs an aggregate (`plan`) or a sorted-run (`order_key`, projecting
  /// every column) plan over the table; `batch_size` 0 runs it tuple at a
  /// time.
  Result<std::vector<Tuple>> Run(const AggregatePlan* plan,
                                 const BoundExpr* order_key, bool descending,
                                 int64_t limit, size_t batch_size,
                                 size_t workers = 1) {
    std::vector<BoundExprPtr> columns;
    for (size_t i = 0; i < RowSchema().num_columns(); ++i) {
      auto col = std::make_unique<BoundExpr>();
      col->kind = BoundExprKind::kColumn;
      col->column_index = i;
      col->result_type = RowSchema().column(i).type;
      columns.push_back(std::move(col));
    }
    const ScanSpec spec = ScanSpec::Make(nullptr, ColumnMask::All());
    UdfContext ctx(nullptr);
    obs::Counter* morsels =
        obs::MetricsRegistry::Global()->GetCounter("exec.parallel.morsels");
    const uint64_t morsels_before = morsels->value();
    Pipeline p;
    p.engine = engine_.get();
    p.first_page = first_page_;
    p.scan = &spec;
    p.batched = batch_size > 0;
    p.batch_size = batch_size;
    p.num_workers = workers;
    p.aggregate = plan;
    p.order_key = order_key;
    p.descending = descending;
    p.out_exprs = &columns;
    p.limit = limit;
    p.ctx = &ctx;
    Result<std::vector<Tuple>> rows = RunPipeline(p);
    // The table spans several morsels, so a parallel plan merges.
    if (workers > 1 && batch_size > 0) {
      EXPECT_GE(morsels->value() - morsels_before, 2u);
    }
    return rows;
  }

 private:
  TempDb db_;
  std::unique_ptr<StorageEngine> engine_;
  PageId first_page_ = kInvalidPageId;
};

TEST(AggregateUnitTest, OpAgreesAcrossBatchSizesAndScalarPath) {
  // The aggregate sink over a heap: tuple at a time, batched at sizes 1, 3
  // and 256, and as 4-worker morsels (partials merged in morsel order).
  AggregatePlan plan = MustPlan(kGroupedSql);
  RowTable table(MakeRows(kHeapRows));

  std::vector<std::vector<uint8_t>> expect =
      Serialized(table.Run(&plan, nullptr, false, -1, 0).value());
  ASSERT_EQ(expect.size(), 4u);
  for (size_t workers : {size_t{1}, size_t{4}}) {
    for (size_t batch_size : {size_t{1}, size_t{3}, size_t{256}}) {
      Result<std::vector<Tuple>> got =
          table.Run(&plan, nullptr, false, -1, batch_size, workers);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(Serialized(*got), expect)
          << "batch size " << batch_size << ", " << workers << " workers";
    }
  }
}

TEST(AggregateUnitTest, ImplicitSingleGroupOnEmptyInput) {
  AggregatePlan plan =
      MustPlan("SELECT COUNT(*), SUM(v), MIN(v), AVG(d) FROM t");
  ASSERT_TRUE(plan.implicit_single_group());
  HashAggregator agg(&plan);
  std::vector<Tuple> out = agg.Finalize(nullptr).value();
  ASSERT_EQ(out.size(), 1u);  // one row even with zero input
  EXPECT_EQ(out[0].value(0).AsInt(), 0);
  EXPECT_TRUE(out[0].value(1).is_null());
  EXPECT_TRUE(out[0].value(2).is_null());
  EXPECT_TRUE(out[0].value(3).is_null());

  // With GROUP BY, empty input means zero groups.
  AggregatePlan grouped = MustPlan(kGroupedSql);
  HashAggregator gagg(&grouped);
  EXPECT_EQ(gagg.Finalize(nullptr).value().size(), 0u);
}

TEST(AggregateUnitTest, MergeAndFinalizeHonorExpiredDeadline) {
  // > 1024 distinct groups so the merge/finalize loops reach their
  // deadline-poll stride.
  AggregatePlan plan = MustPlan("SELECT v, COUNT(*) FROM t GROUP BY v");
  HashAggregator a(&plan);
  HashAggregator b(&plan);
  for (int i = 0; i < 3000; ++i) {
    Tuple row({Value::Int(0), Value::Int(i), Value::Null()});
    ASSERT_TRUE(Feed(&a, plan, {row}, /*batched=*/false).ok());
    ASSERT_TRUE(Feed(&b, plan, {row}, /*batched=*/false).ok());
  }
  QueryDeadline expired = QueryDeadline::After(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(expired.Expired());
  EXPECT_TRUE(a.MergeFrom(&b, &expired).IsDeadlineExceeded());
  EXPECT_TRUE(a.Finalize(&expired).status().IsDeadlineExceeded());
}

// ---------------------------------------------------------------------------
// Sorter
// ---------------------------------------------------------------------------

/// Keys cycle over {NULL, 0, 1, 2} so every order has ties and NULLs; the
/// payload row carries the original position to make order checks exact.
std::vector<std::pair<Value, Tuple>> MakeSortInput(int n) {
  std::vector<std::pair<Value, Tuple>> input;
  input.reserve(n);
  for (int i = 0; i < n; ++i) {
    Value key = (i % 4 == 0) ? Value::Null() : Value::Int(i % 4);
    input.emplace_back(std::move(key), Tuple({Value::Int(i)}));
  }
  return input;
}

std::vector<Tuple> FullSort(const std::vector<std::pair<Value, Tuple>>& input,
                            bool descending) {
  Sorter sorter(descending, /*limit=*/-1);
  for (const auto& [key, row] : input) sorter.Add(key, row);
  EXPECT_TRUE(sorter.Finish().ok());
  return sorter.TakeRows();
}

TEST(SortUnitTest, TopKMatchesFullSortPrefix) {
  const int n = 40;
  std::vector<std::pair<Value, Tuple>> input = MakeSortInput(n);
  for (bool descending : {false, true}) {
    std::vector<std::vector<uint8_t>> full =
        Serialized(FullSort(input, descending));
    ASSERT_EQ(full.size(), static_cast<size_t>(n));
    for (int64_t limit : {int64_t{0}, int64_t{1}, int64_t{3}, int64_t{n},
                          int64_t{n + 5}}) {
      Sorter sorter(descending, limit);
      EXPECT_TRUE(sorter.bounded());
      for (const auto& [key, row] : input) sorter.Add(key, row);
      ASSERT_TRUE(sorter.Finish().ok());
      std::vector<std::vector<uint8_t>> got = Serialized(sorter.TakeRows());
      size_t want = std::min<size_t>(limit, n);
      ASSERT_EQ(got.size(), want) << "desc=" << descending << " k=" << limit;
      for (size_t i = 0; i < want; ++i) {
        EXPECT_EQ(got[i], full[i])
            << "desc=" << descending << " k=" << limit << " row " << i;
      }
    }
  }
}

TEST(SortUnitTest, MergeRunsMatchesSingleRunSort) {
  const int n = 60;
  std::vector<std::pair<Value, Tuple>> input = MakeSortInput(n);
  for (bool descending : {false, true}) {
    for (int64_t limit : {int64_t{-1}, int64_t{0}, int64_t{5}, int64_t{n}}) {
      // Serial reference: one run over all rows in scan order.
      Sorter reference(descending, limit);
      for (const auto& [key, row] : input) reference.Add(key, row);
      ASSERT_TRUE(reference.Finish().ok());
      std::vector<std::vector<uint8_t>> expect =
          Serialized(reference.TakeRows());

      // Parallel shape: 3 contiguous runs with run ids in morsel order.
      std::vector<std::vector<Sorter::Entry>> runs;
      for (uint64_t m = 0; m < 3; ++m) {
        Sorter run_sorter(descending, limit, /*run_id=*/m);
        for (size_t i = m * n / 3; i < (m + 1) * n / 3; ++i) {
          run_sorter.Add(input[i].first, input[i].second);
        }
        ASSERT_TRUE(run_sorter.Finish().ok());
        runs.push_back(run_sorter.TakeEntries());
      }
      std::vector<Tuple> merged =
          Sorter::MergeRuns(std::move(runs), descending, limit, nullptr)
              .value();
      EXPECT_EQ(Serialized(merged), expect)
          << "desc=" << descending << " k=" << limit;
    }
  }
}

TEST(SortUnitTest, SortRowsAgreesAcrossBatchSizesAndLimits) {
  sql::ExprPtr expr = sql::ParseExpression("v").value();
  BoundExprPtr key = Bind(*expr, RowSchema(), "t", "", nullptr).value();
  std::vector<Tuple> rows = MakeRows(kHeapRows);
  RowTable table(rows);

  for (bool descending : {false, true}) {
    for (int64_t limit : {int64_t{-1}, int64_t{4}}) {
      SCOPED_TRACE("desc=" + std::to_string(descending) +
                   " k=" + std::to_string(limit));
      // SortRows, per-row key evaluation and one batch.
      std::vector<std::vector<uint8_t>> expect = Serialized(
          SortRows(rows, *key, descending, limit, nullptr,
                   /*batched=*/false, nullptr)
              .value());
      EXPECT_EQ(expect.size(),
                limit < 0 ? rows.size() : static_cast<size_t>(limit));
      EXPECT_EQ(Serialized(SortRows(rows, *key, descending, limit, nullptr,
                                    /*batched=*/true, nullptr)
                               .value()),
                expect);
      // The sorted-run sink over the same rows in a heap: tuple at a time,
      // at every batch size, and as 4-worker morsel runs.
      for (size_t workers : {size_t{1}, size_t{4}}) {
        for (size_t batch_size : {size_t{0}, size_t{1}, size_t{3},
                                  size_t{256}}) {
          Result<std::vector<Tuple>> got = table.Run(
              nullptr, key.get(), descending, limit, batch_size, workers);
          ASSERT_TRUE(got.ok()) << got.status();
          EXPECT_EQ(Serialized(*got), expect)
              << "batch " << batch_size << ", " << workers << " workers";
        }
      }
    }
  }
}

TEST(SortUnitTest, IncomparableKeysFailCleanly) {
  Sorter sorter(/*descending=*/false, /*limit=*/-1);
  sorter.Add(Value::Int(1), Tuple({Value::Int(0)}));
  sorter.Add(Value::String("x"), Tuple({Value::Int(1)}));
  EXPECT_FALSE(sorter.Finish().ok());
}

TEST(AggregateUnitTest, SumOverflowIsAnErrorNotWraparound) {
  AggregatePlan plan = MustPlan("SELECT SUM(v) FROM t");
  const AggSpec& spec = plan.specs[0];

  // Single-pass accumulation: INT64_MAX alone is fine; one more positive
  // value overflows and must error instead of wrapping negative.
  AggAccum accum;
  ASSERT_TRUE(accum.Accumulate(spec, Value::Int(INT64_MAX)).ok());
  EXPECT_EQ(accum.Finalize(spec).AsInt(), INT64_MAX);
  Status overflowed = accum.Accumulate(spec, Value::Int(1));
  EXPECT_TRUE(overflowed.IsOutOfRange()) << overflowed.ToString();

  // The negative boundary overflows symmetrically.
  AggAccum negative;
  ASSERT_TRUE(negative.Accumulate(spec, Value::Int(INT64_MIN)).ok());
  EXPECT_TRUE(negative.Accumulate(spec, Value::Int(-1)).IsOutOfRange());

  // Partial-merge path (the parallel plan): two individually-fine partials
  // whose combination overflows must fail in Merge.
  AggAccum left;
  AggAccum right;
  ASSERT_TRUE(left.Accumulate(spec, Value::Int(INT64_MAX)).ok());
  ASSERT_TRUE(right.Accumulate(spec, Value::Int(1)).ok());
  EXPECT_TRUE(left.Merge(spec, right).IsOutOfRange());

  // Merging values that cancel stays exact.
  AggAccum a;
  AggAccum b;
  ASSERT_TRUE(a.Accumulate(spec, Value::Int(INT64_MAX)).ok());
  ASSERT_TRUE(b.Accumulate(spec, Value::Int(-1)).ok());
  ASSERT_TRUE(a.Merge(spec, b).ok());
  EXPECT_EQ(a.Finalize(spec).AsInt(), INT64_MAX - 1);

  // AVG shares the int accumulator, so it reports overflow the same way.
  AggregatePlan avg_plan = MustPlan("SELECT AVG(v) FROM t");
  AggAccum avg;
  ASSERT_TRUE(avg.Accumulate(avg_plan.specs[0], Value::Int(INT64_MAX)).ok());
  EXPECT_TRUE(
      avg.Accumulate(avg_plan.specs[0], Value::Int(2)).IsOutOfRange());
}

TEST(SortUnitTest, MergeRunsHonorsExpiredDeadline) {
  // > 1024 merged rows so the merge loop reaches its deadline-poll stride.
  std::vector<std::vector<Sorter::Entry>> runs;
  for (uint64_t m = 0; m < 2; ++m) {
    Sorter sorter(/*descending=*/false, /*limit=*/-1, m);
    for (int i = 0; i < 1500; ++i) {
      sorter.Add(Value::Int(i), Tuple({Value::Int(i)}));
    }
    ASSERT_TRUE(sorter.Finish().ok());
    runs.push_back(sorter.TakeEntries());
  }
  QueryDeadline expired = QueryDeadline::After(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(expired.Expired());
  EXPECT_TRUE(Sorter::MergeRuns(std::move(runs), false, -1, &expired)
                  .status()
                  .IsDeadlineExceeded());
}

}  // namespace
}  // namespace exec
}  // namespace jaguar
