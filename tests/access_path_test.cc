// End-to-end tests for the access-path chooser shared by SELECT, UPDATE and
// DELETE (exec::PickIndexScan via Database::ChooseAccessPath).
//
//   - Every statement runs on two copies of one table, one with an index on
//     the key and one without. Results match, and after each statement a
//     heap-order `SELECT *` is byte-identical between the copies: UPDATE
//     and DELETE collect their rows through the index and apply them in
//     heap-chain order, as the scan plan does.
//   - The index path does only the work the range implies: every range
//     conjunct on the chosen column narrows one probe, a unary minus over a
//     literal is folded, and a UDF conjunct of a keyed UPDATE or DELETE runs
//     only on the index survivors.
//   - A parallel COUNT(*) reads its page list from the heap directory, so
//     it fetches no more pages than the serial plan.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "engine/database.h"
#include "index/btree.h"
#include "storage/table_heap.h"
#include "temp_db.h"

namespace jaguar {
namespace {

uint64_t Delta(const QueryResult& r, const std::string& name) {
  auto it = r.metrics_delta.find(name);
  return it != r.metrics_delta.end() ? it->second : 0;
}

uint64_t PagesFetched(const QueryResult& r) {
  return Delta(r, "storage.bufferpool.hits") +
         Delta(r, "storage.bufferpool.misses");
}

/// UDF invocations of every design (`udf.<design>.invocations`).
uint64_t UdfInvocations(const QueryResult& r) {
  uint64_t n = 0;
  for (const auto& [name, value] : r.metrics_delta) {
    if (StartsWith(name, "udf.") && EndsWith(name, ".invocations") &&
        name != "udf.batch.invocations") {
      n += value;
    }
  }
  return n;
}

std::vector<std::string> SerializedRows(const QueryResult& r) {
  std::vector<std::string> out;
  for (const Tuple& t : r.rows) out.push_back(Slice(t.Serialize()).ToString());
  return out;
}

std::vector<std::string> SortedRows(const QueryResult& r) {
  std::vector<std::string> out = SerializedRows(r);
  std::sort(out.begin(), out.end());
  return out;
}

UdfInfo GenericUdf() {
  UdfInfo info;
  info.name = "g";
  info.language = UdfLanguage::kNative;
  info.return_type = TypeId::kInt;
  info.arg_types = {TypeId::kBytes, TypeId::kInt, TypeId::kInt, TypeId::kInt};
  info.impl_name = "generic_udf";
  return info;
}

// ---------------------------------------------------------------------------
// Indexed copy vs plain copy: t (id INT, name STRING, v INT, b BYTEARRAY)
// keyed on id, s (k STRING, v INT) keyed on k.
// ---------------------------------------------------------------------------

constexpr int kRows = 200;
constexpr int kFirstId = -20;  // ids run from -20 to 179

/// Byte-array length of row `i`: mostly short, some 2.5 KB, a few overflow.
size_t BytesOf(int i) {
  if (i % 50 == 3) return 10000;
  return i % 10 == 0 ? 2500 : 100;
}

class AccessPathTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    DatabaseOptions options;
    options.vectorized_execution = GetParam();
    options.batch_size = 8;
    for (int c = 0; c < 2; ++c) {
      dbs_[c] = Database::Open(files_[c].path(), options).value();
      Database* db = dbs_[c].get();
      ASSERT_TRUE(db->RegisterUdf(GenericUdf()).ok());
      Must(db, "CREATE TABLE t (id INT, name STRING, v INT, b BYTEARRAY)");
      for (int start = 0; start < kRows; start += 20) {
        std::string sql = "INSERT INTO t VALUES ";
        for (int i = start; i < start + 20; ++i) {
          if (i > start) sql += ", ";
          sql += StringPrintf("(%d, 'n%d', %d, randbytes(%zu, %d))",
                              kFirstId + i, i, (i * 7) % 50, BytesOf(i), i);
        }
        Must(db, sql);
      }
      Must(db, "CREATE TABLE s (k STRING, v INT)");
      std::string sql = "INSERT INTO s VALUES ";
      for (int i = 0; i < kRows; ++i) {
        if (i > 0) sql += ", ";
        sql += StringPrintf("('k%03d', %d)", (i * 37) % kRows, i);
      }
      Must(db, sql);
    }
    Must(indexed(), "CREATE INDEX t_id ON t (id)");
    Must(indexed(), "CREATE INDEX s_k ON s (k)");
  }

  void TearDown() override {
    for (int c = 0; c < 2; ++c) {
      if (dbs_[c] != nullptr) {
        EXPECT_EQ(dbs_[c]->storage()->buffer_pool()->pinned_frames(), 0u);
      }
      dbs_[c].reset();
    }
  }

  Database* plain() { return dbs_[0].get(); }
  Database* indexed() { return dbs_[1].get(); }

  static QueryResult Must(Database* db, const std::string& sql) {
    Result<QueryResult> r = db->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status();
    return r.ok() ? std::move(r).value() : QueryResult{};
  }

  /// Runs `sql` on both copies and checks they agree on the outcome, the
  /// rows (as a multiset: an index scan returns key order) and, afterwards,
  /// the heap order of both tables. Returns {plain, indexed}.
  std::pair<QueryResult, QueryResult> Both(const std::string& sql) {
    SCOPED_TRACE(sql);
    QueryResult p = Must(plain(), sql);
    QueryResult x = Must(indexed(), sql);
    EXPECT_EQ(p.rows_affected, x.rows_affected);
    EXPECT_EQ(SortedRows(p), SortedRows(x));
    ExpectSameHeaps();
    return {std::move(p), std::move(x)};
  }

  void ExpectSameHeaps() {
    for (const char* table : {"t", "s"}) {
      const std::string sql = std::string("SELECT * FROM ") + table;
      EXPECT_EQ(SerializedRows(Must(plain(), sql)),
                SerializedRows(Must(indexed(), sql)))
          << "heap order of " << table << " diverged";
    }
  }

  TempDb files_[2] = {TempDb("access_path_plain"),
                      TempDb("access_path_indexed")};
  std::unique_ptr<Database> dbs_[2];
};

TEST_P(AccessPathTest, RangeReadFetchesOnlyTheRowsInRange) {
  auto [p, x] = Both("SELECT id, length(b) FROM t WHERE id >= 50 AND id < 70");
  ASSERT_EQ(x.rows.size(), 20u);
  EXPECT_EQ(Delta(x, "exec.index.scans"), 1u);
  EXPECT_EQ(Delta(x, "exec.index.range_scans"), 1u);
  EXPECT_EQ(Delta(x, "exec.index.lookups"), x.rows.size());
  EXPECT_EQ(Delta(x, "exec.seqscan.tuples"), 0u);
  EXPECT_EQ(Delta(p, "exec.seqscan.tuples"), static_cast<uint64_t>(kRows));
}

TEST_P(AccessPathTest, DuplicateAndContradictoryBoundsMerge) {
  auto [p, x] = Both("SELECT * FROM t WHERE id >= 5 AND id >= 7 AND id < 9");
  EXPECT_EQ(x.rows.size(), 2u);
  EXPECT_EQ(Delta(x, "exec.index.lookups"), 2u);

  // An empty range probes the tree and reads no heap page: it fetches the
  // same index pages as an empty range probed from the same key.
  auto [p2, empty] = Both("SELECT * FROM t WHERE id > 10 AND id < 5");
  EXPECT_TRUE(empty.rows.empty());
  EXPECT_EQ(Delta(empty, "exec.index.scans"), 1u);
  EXPECT_EQ(Delta(empty, "exec.index.lookups"), 0u);
  QueryResult probe = Must(indexed(), "SELECT * FROM t WHERE id > 10 AND id < 11");
  EXPECT_TRUE(probe.rows.empty());
  EXPECT_EQ(PagesFetched(empty), PagesFetched(probe));

  // Equality and range conjuncts on one column intersect too.
  auto [p3, eq] = Both("SELECT id FROM t WHERE id < 100 AND id = 42 AND id >= 42");
  EXPECT_EQ(eq.rows.size(), 1u);
  EXPECT_EQ(Delta(eq, "exec.index.lookups"), 1u);
  EXPECT_EQ(Delta(eq, "exec.index.range_scans"), 0u);
}

TEST_P(AccessPathTest, UnaryMinusConstantsUseTheIndex) {
  for (const char* sql : {"SELECT * FROM t WHERE id = -1",
                          "SELECT id, name FROM t WHERE id > -5",
                          "SELECT id FROM t WHERE -3 >= id AND id > -10"}) {
    auto [p, x] = Both(sql);
    SCOPED_TRACE(sql);
    EXPECT_FALSE(x.rows.empty());
    EXPECT_EQ(Delta(x, "exec.index.scans"), 1u);
    EXPECT_EQ(Delta(x, "exec.seqscan.tuples"), 0u);
    EXPECT_EQ(Delta(x, "exec.index.lookups"), x.rows.size());
  }
}

TEST_P(AccessPathTest, KeyedWritesProbeTheIndex) {
  for (const char* sql : {"UPDATE t SET name = 'renamed' WHERE id = 33",
                          "DELETE FROM t WHERE id = 34",
                          "UPDATE t SET v = v + 1 WHERE 35 = id"}) {
    auto [p, x] = Both(sql);
    SCOPED_TRACE(sql);
    EXPECT_EQ(x.rows_affected, 1u);
    EXPECT_EQ(Delta(x, "exec.index.scans"), 1u);
    EXPECT_EQ(Delta(x, "exec.index.lookups"), 1u);
    EXPECT_EQ(Delta(p, "exec.index.scans"), 0u);
  }
  // A key with no row changes nothing and reads no heap page.
  auto [p, x] = Both("DELETE FROM t WHERE id = 100000");
  EXPECT_EQ(x.rows_affected, 0u);
  EXPECT_EQ(Delta(x, "exec.index.lookups"), 0u);
}

TEST_P(AccessPathTest, MultiRowRangeWritesApplyInHeapOrder) {
  // Each UPDATE deletes and reinserts its rows, so the order it applies
  // them in decides the heap layout the two copies must share.
  Both("UPDATE t SET b = randbytes(3000, v) WHERE id >= 40 AND id < 60");
  Both("UPDATE t SET name = 'a name long enough to grow the record' "
       "WHERE id < 10 AND id >= -20");
  Both("DELETE FROM t WHERE id > 100 AND id <= 120");
  Both("UPDATE t SET b = randbytes(12000, 1) WHERE id >= 120 AND id < 140");
  Both("INSERT INTO t VALUES (500, 'late', 1, randbytes(40, 1))");
  auto [p, x] = Both("DELETE FROM t WHERE id >= 0 AND id < 30");
  EXPECT_EQ(x.rows_affected, 30u);
  EXPECT_EQ(Delta(x, "exec.index.lookups"), 30u);
}

TEST_P(AccessPathTest, UpdateMovingKeysIntoItsRangeChangesEachRowOnce) {
  auto [p, x] = Both("UPDATE t SET id = id + 1000 WHERE id >= 10 AND id < 20");
  EXPECT_EQ(x.rows_affected, 10u);
  EXPECT_EQ(Delta(x, "exec.index.lookups"), 10u);
  auto [p2, moved] = Both("SELECT id FROM t WHERE id >= 1010 AND id < 1020");
  EXPECT_EQ(moved.rows.size(), 10u);
  auto [p3, gone] = Both("SELECT id FROM t WHERE id >= 10 AND id < 20");
  EXPECT_TRUE(gone.rows.empty());
  // Moving keys up into a range the statement itself scans.
  auto [p4, up] = Both("UPDATE t SET id = id + 5 WHERE id >= 1010 AND id < 1030");
  EXPECT_EQ(up.rows_affected, 10u);
  auto [p5, after] = Both("SELECT id FROM t WHERE id >= 1015 AND id < 1025");
  EXPECT_EQ(after.rows.size(), 10u);
}

TEST_P(AccessPathTest, StringKeys) {
  auto [p, x] = Both("UPDATE s SET v = v * 2 WHERE k >= 'k050' AND k < 'k060'");
  EXPECT_EQ(x.rows_affected, 10u);
  EXPECT_EQ(Delta(x, "exec.index.lookups"), 10u);
  Both("DELETE FROM s WHERE k = 'k070'");
  Both("UPDATE s SET k = 'ak' WHERE k > 'k190'");
  auto [p2, read] = Both("SELECT * FROM s WHERE k <= 'k010' AND k > 'ak'");
  EXPECT_EQ(Delta(read, "exec.index.lookups"), read.rows.size());
}

TEST_P(AccessPathTest, UdfResidualRunsOnlyOnIndexSurvivors) {
  // The UDF conjunct is written first; the index still runs before it.
  auto [p, x] = Both(
      "UPDATE t SET v = 0 WHERE length(b) > 1000 AND id >= 30 AND id < 50");
  EXPECT_EQ(Delta(x, "exec.index.lookups"), 20u);
  EXPECT_EQ(UdfInvocations(x), 20u);
  EXPECT_EQ(UdfInvocations(p), static_cast<uint64_t>(kRows));
  EXPECT_EQ(x.rows_affected, 3u);  // ids 30, 33 and 40

  auto [p2, del] = Both(
      "DELETE FROM t WHERE g(b, 0, 0, 0) > 0 AND id > 60 AND id <= 75");
  EXPECT_EQ(Delta(del, "exec.index.lookups"), 15u);
  EXPECT_EQ(UdfInvocations(del), 15u);
  EXPECT_EQ(UdfInvocations(p2), static_cast<uint64_t>(kRows));
}

TEST_P(AccessPathTest, DeadlineWhileCollectingLeavesTheTableUnchanged) {
  const std::vector<std::string> before =
      SerializedRows(Must(indexed(), "SELECT * FROM t"));
  // Each call of g runs ~10^6 additions, so the 200 calls outlast the
  // 20 ms deadline long before the last row is collected.
  const std::string sql =
      "UPDATE t SET v = -1 WHERE id >= -20 AND id < 180 AND "
      "g(b, 1000000, 0, 0) <> 0";
  for (Database* db : {plain(), indexed()}) {
    Must(db, "SET TIMEOUT 20");
    Result<QueryResult> r = db->Execute(sql);
    EXPECT_TRUE(r.status().IsDeadlineExceeded()) << r.status();
    Result<QueryResult> d = db->Execute(
        "DELETE FROM t WHERE id >= -20 AND g(b, 1000000, 0, 0) <> 0");
    EXPECT_TRUE(d.status().IsDeadlineExceeded()) << d.status();
    Must(db, "SET TIMEOUT 0");
  }
  EXPECT_EQ(SerializedRows(Must(indexed(), "SELECT * FROM t")), before);
  ExpectSameHeaps();
}

TEST_P(AccessPathTest, DanglingIndexEntryIsCorruption) {
  // Remove a row's record behind the index's back.
  const TableInfo* table = indexed()->catalog()->GetTable("t").value();
  const IndexInfo* idx = indexed()->catalog()->GetIndex("t_id").value();
  std::vector<RecordId> rids =
      BTree(indexed()->storage(), idx->root).SearchEqual(Value::Int(77)).value();
  ASSERT_EQ(rids.size(), 1u);
  ASSERT_TRUE(
      TableHeap(indexed()->storage(), table->first_page).Delete(rids[0]).ok());
  for (const char* sql : {"SELECT * FROM t WHERE id = 77",
                          "UPDATE t SET v = 1 WHERE id = 77",
                          "DELETE FROM t WHERE id >= 70 AND id < 80"}) {
    Result<QueryResult> r = indexed()->Execute(sql);
    EXPECT_TRUE(r.status().IsCorruption()) << sql << " -> " << r.status();
  }
}

TEST_P(AccessPathTest, CountByKeyProbesTheIndex) {
  auto [p, x] = Both("SELECT COUNT(*) FROM t WHERE id = 3");
  ASSERT_EQ(x.rows.size(), 1u);
  EXPECT_EQ(x.rows[0].value(0).AsInt(), 1);
  EXPECT_EQ(Delta(x, "exec.index.scans"), 1u);
  EXPECT_EQ(Delta(x, "exec.index.lookups"), 1u);
  EXPECT_EQ(Delta(x, "exec.seqscan.tuples"), 0u);
  EXPECT_EQ(Delta(p, "exec.seqscan.tuples"), static_cast<uint64_t>(kRows));
}

TEST_P(AccessPathTest, AggregatesOverTheIndexMatchTheHeapPlan) {
  // d's keys are a permutation of 0..199, so key order is not heap order,
  // and x's sums are inexact: only survivors read in heap-chain order add
  // up to the heap plan's doubles bit for bit.
  for (Database* db : {plain(), indexed()}) {
    Must(db, "CREATE TABLE d (id INT, g INT, x DOUBLE)");
    std::string sql = "INSERT INTO d VALUES ";
    for (int i = 0; i < kRows; ++i) {
      if (i > 0) sql += ", ";
      sql += StringPrintf("(%d, %d, %d.1 / 3.0)", (i * 73) % kRows, i % 5, i);
    }
    Must(db, sql);
  }
  Must(indexed(), "CREATE INDEX d_id ON d (id)");

  const std::string aggs =
      "COUNT(*), COUNT(x), SUM(x), AVG(x), MIN(x), MAX(x), SUM(id), MIN(id)";
  for (const std::string where :
       {"id = 42", "id >= 20 AND id < 150 AND id >= 30 AND id <= 140",
        "-5 < id AND id < 100"}) {
    for (const std::string& sql :
         {"SELECT " + aggs + " FROM d WHERE " + where,
          "SELECT g, " + aggs + " FROM d WHERE " + where + " GROUP BY g",
          "SELECT g, SUM(x) FROM d WHERE " + where +
              " GROUP BY g ORDER BY g DESC LIMIT 3"}) {
      SCOPED_TRACE(sql);
      QueryResult p = Must(plain(), sql);
      QueryResult x = Must(indexed(), sql);
      EXPECT_FALSE(x.rows.empty());
      EXPECT_EQ(SerializedRows(x), SerializedRows(p));
      EXPECT_EQ(Delta(x, "exec.index.scans"), 1u);
      EXPECT_EQ(Delta(x, "exec.seqscan.tuples"), 0u);
      EXPECT_EQ(Delta(p, "exec.seqscan.tuples"), static_cast<uint64_t>(kRows));
    }
  }

  // A contradictory range probes the tree and fetches no heap page: the
  // same index pages as an empty range probed from the same key.
  const std::string empty_sql =
      "SELECT COUNT(*), SUM(x), MIN(x) FROM d WHERE id > 10 AND id < 5";
  QueryResult p = Must(plain(), empty_sql);
  QueryResult empty = Must(indexed(), empty_sql);
  EXPECT_EQ(SerializedRows(empty), SerializedRows(p));
  EXPECT_EQ(empty.rows[0].ToString(), "(0, NULL, NULL)");
  EXPECT_EQ(Delta(empty, "exec.index.scans"), 1u);
  EXPECT_EQ(Delta(empty, "exec.index.lookups"), 0u);
  QueryResult probe =
      Must(indexed(), "SELECT COUNT(*) FROM d WHERE id > 10 AND id < 11");
  EXPECT_EQ(probe.rows[0].value(0).AsInt(), 0);
  EXPECT_EQ(PagesFetched(empty), PagesFetched(probe));
}

TEST_P(AccessPathTest, AggregateUdfResidualRunsOnlyOnIndexSurvivors) {
  // The UDF conjunct is written first; the index still runs before it.
  const std::string where =
      "g(b, 0, 1, 0) % 2 = 0 AND id >= 30 AND id < 50";
  for (const std::string& sql :
       {"SELECT COUNT(*), SUM(v), MIN(name), MAX(v) FROM t WHERE " + where,
        "SELECT v, COUNT(*), AVG(id) FROM t WHERE " + where + " GROUP BY v"}) {
    SCOPED_TRACE(sql);
    QueryResult p = Must(plain(), sql);
    QueryResult x = Must(indexed(), sql);
    EXPECT_EQ(SerializedRows(x), SerializedRows(p));
    EXPECT_EQ(Delta(x, "exec.index.lookups"), 20u);
    EXPECT_EQ(UdfInvocations(x), 20u);
    EXPECT_EQ(UdfInvocations(p), static_cast<uint64_t>(kRows));
  }
}

TEST_P(AccessPathTest, ResidualUdfKeepsItsBatchesOverTheIndex) {
  // The residual runs in the record loop over the index's record list: one
  // crossing per batch of 8 survivors under the batch protocol, one call
  // per survivor either way, and exactly the survivors count as filtered.
  const std::string sql =
      "SELECT id FROM t WHERE id >= 50 AND id < 70 AND g(b, 0, 0, 0) = 0";
  QueryResult x = Must(indexed(), sql);
  ASSERT_EQ(x.rows.size(), 20u);
  EXPECT_EQ(UdfInvocations(x), 20u);
  EXPECT_EQ(Delta(x, "udf.batch.invocations"), GetParam() ? 3u : 0u);
  EXPECT_EQ(Delta(x, "exec.filter.tuples"), 20u);
  EXPECT_EQ(Delta(x, "exec.seqscan.tuples"), 0u);

  // Under LIMIT the UDF runs on no row past the limit: 8 + 3 rows in
  // batches, as many as the tuple-at-a-time plan calls it on.
  QueryResult limited = Must(indexed(), sql + " LIMIT 11");
  ASSERT_EQ(limited.rows.size(), 11u);
  EXPECT_EQ(UdfInvocations(limited), 11u);
  EXPECT_EQ(Delta(limited, "udf.batch.invocations"), GetParam() ? 2u : 0u);
  EXPECT_EQ(Delta(limited, "exec.filter.tuples"), 11u);
  EXPECT_EQ(Delta(limited, "exec.limit.tuples"), 11u);
}

INSTANTIATE_TEST_SUITE_P(Plans, AccessPathTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "vectorized" : "tuple";
                         });

// ---------------------------------------------------------------------------
// A parallel plan fetches no more pages than the serial plan.
// ---------------------------------------------------------------------------

TEST(AccessPathParallelTest, CountFetchesNoMorePagesThanSerial) {
  // About 120 chain pages over a 32-page pool.
  constexpr int kBigRows = 840;
  QueryResult serial_result;
  for (size_t workers : {1, 2, 4}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    TempDb db_file("access_path_" + std::to_string(workers));
    DatabaseOptions options;
    options.buffer_pool_pages = 32;
    options.vectorized_execution = true;
    options.num_workers = workers;
    auto db = Database::Open(db_file.path(), options).value();
    ASSERT_TRUE(db->Execute("CREATE TABLE big (id INT, b BYTEARRAY)").ok());
    for (int start = 0; start < kBigRows; start += 40) {
      std::string sql = "INSERT INTO big VALUES ";
      for (int i = start; i < start + 40; ++i) {
        if (i > start) sql += ", ";
        sql += StringPrintf("(%d, randbytes(1000, %d))", i, i);
      }
      ASSERT_TRUE(db->Execute(sql).ok());
    }
    const TableInfo* table = db->catalog()->GetTable("big").value();
    const size_t chain_pages =
        TableHeap(db->storage(), table->first_page).ListPages().value().size();
    ASSERT_GE(chain_pages, 3 * options.buffer_pool_pages);

    Result<QueryResult> r = db->Execute("SELECT COUNT(*) FROM big");
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(r->rows[0].value(0).AsInt(), kBigRows);
    EXPECT_EQ(PagesFetched(*r), chain_pages);
    if (workers == 1) {
      serial_result = std::move(r).value();
    } else {
      EXPECT_GE(Delta(*r, "exec.parallel.workers"), 2u);
      EXPECT_LE(PagesFetched(*r), PagesFetched(serial_result));
    }
    EXPECT_EQ(db->storage()->buffer_pool()->pinned_frames(), 0u);
  }
}

TEST(AccessPathParallelTest, IndexPickedAggregateRunsAsOneStream) {
  TempDb db_file("access_path_one_stream");
  DatabaseOptions options;
  options.vectorized_execution = true;
  options.num_workers = 4;
  auto db = Database::Open(db_file.path(), options).value();
  ASSERT_TRUE(db->Execute("CREATE TABLE big (id INT, b BYTEARRAY)").ok());
  for (int start = 0; start < 400; start += 40) {
    std::string sql = "INSERT INTO big VALUES ";
    for (int i = start; i < start + 40; ++i) {
      if (i > start) sql += ", ";
      sql += StringPrintf("(%d, randbytes(1000, %d))", i, i);
    }
    ASSERT_TRUE(db->Execute(sql).ok());
  }
  ASSERT_TRUE(db->Execute("CREATE INDEX big_id ON big (id)").ok());

  // A heap plan over the same table runs on morsels.
  QueryResult heap = db->Execute("SELECT COUNT(*), SUM(id) FROM big").value();
  EXPECT_EQ(heap.rows[0].ToString(), "(400, 79800)");
  EXPECT_EQ(Delta(heap, "exec.parallel.queries"), 1u);

  QueryResult index = db->Execute(
      "SELECT COUNT(*), SUM(id) FROM big WHERE id >= 100 AND id < 300")
                          .value();
  EXPECT_EQ(index.rows[0].ToString(), "(200, 39900)");
  EXPECT_EQ(Delta(index, "exec.index.scans"), 1u);
  EXPECT_EQ(Delta(index, "exec.parallel.queries"), 0u);
  EXPECT_EQ(Delta(index, "exec.agg.queries"), 1u);
  EXPECT_EQ(Delta(index, "exec.agg.parallel_queries"), 0u);
  EXPECT_EQ(Delta(index, "exec.agg.partial_merges"), 0u);
  EXPECT_EQ(db->storage()->buffer_pool()->pinned_frames(), 0u);
}

}  // namespace
}  // namespace jaguar
