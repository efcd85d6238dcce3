// End-to-end tests for the heap scan path: in-place record views, the
// two-phase decode (the WHERE clause's columns first, the plan's other
// columns only for rows that pass) and the WHERE clause inside the scan.
//
//   - Tuple-at-a-time, vectorized and 4-worker plans return byte-identical
//     rows over a table with NULLs and with inline and overflow records, and
//     each does exactly the work the data implies: rows scanned, rows
//     passing and UDF invocations.
//   - A parallel LIMIT stops handing out morsels once its rows are in hand.
//   - An 8-page pool evicts overflow pages mid-scan; views stay valid (the
//     pin rule), no pin leaks, and a morsel scan runs only as many workers
//     as the pool can pin for.

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "engine/database.h"
#include "temp_db.h"

namespace jaguar {
namespace {

QueryResult MustExecute(Database* db, const std::string& sql) {
  Result<QueryResult> r = db->Execute(sql);
  EXPECT_TRUE(r.ok()) << sql << " -> " << r.status();
  return r.ok() ? std::move(r).value() : QueryResult{};
}

uint64_t Delta(const QueryResult& r, const std::string& name) {
  auto it = r.metrics_delta.find(name);
  return it != r.metrics_delta.end() ? it->second : 0;
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

// ---------------------------------------------------------------------------
// Plan A/B: t (id INT, tag STRING, b BYTEARRAY, v INT).
// ---------------------------------------------------------------------------

constexpr int kRows = 200;
// Every fifth row's byte array overflows the page: its record's first chunk
// holds id, tag and the head of b, so v lies past it.
constexpr size_t kOverflowBytes = 20000;
constexpr size_t kInlineBytes = 1500;

struct Row {
  int64_t id;
  std::optional<std::string> tag;
  size_t b_len;
  std::optional<int64_t> v;
};

Row MakeRow(int i) {
  Row row;
  row.id = i;
  if (i % 6 != 1) row.tag = "t" + std::to_string(i % 4);
  row.b_len = i % 5 == 0 ? kOverflowBytes : kInlineBytes;
  if (i % 4 != 2) row.v = (i * 37) % 101;
  return row;
}

struct PlanConfig {
  const char* name;
  bool vectorized;
  size_t workers;
};

constexpr PlanConfig kPlans[] = {
    {"tuple-at-a-time", false, 1},
    {"vectorized", true, 1},
    {"4-worker", true, 4},
};

class ScanPathABTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const PlanConfig& plan : kPlans) {
      DatabaseOptions options;
      options.vectorized_execution = plan.vectorized;
      options.batch_size = 16;
      options.num_workers = plan.workers;
      files_.push_back(
          std::make_unique<TempDb>(std::string("scan_path_") + plan.name));
      dbs_.push_back(Database::Open(files_.back()->path(), options).value());
    }
    for (auto& db : dbs_) {
      MustExecute(db.get(),
                  "CREATE TABLE t (id INT, tag STRING, b BYTEARRAY, v INT)");
      for (int start = 0; start < kRows; start += 20) {
        std::string sql = "INSERT INTO t VALUES ";
        for (int i = start; i < start + 20; ++i) {
          const Row row = MakeRow(i);
          if (i > start) sql += ", ";
          sql += StringPrintf(
              "(%lld, %s, randbytes(%zu, %d), %s)",
              static_cast<long long>(row.id),
              row.tag ? ("'" + *row.tag + "'").c_str() : "NULL", row.b_len,
              i, row.v ? std::to_string(*row.v).c_str() : "NULL");
        }
        MustExecute(db.get(), sql);
      }
    }
  }

  void TearDown() override {
    for (size_t i = 0; i < dbs_.size(); ++i) {
      EXPECT_EQ(dbs_[i]->storage()->buffer_pool()->pinned_frames(), 0u)
          << kPlans[i].name;
      dbs_[i].reset();
    }
  }

  std::vector<std::unique_ptr<TempDb>> files_;
  std::vector<std::unique_ptr<Database>> dbs_;
};

/// Where a statement's UDF runs, which fixes its invocation count.
enum class UdfRuns { kNever, kPerPassingRow, kPerRow };

struct ScanCase {
  std::string sql;
  /// The WHERE clause as the test evaluates it; empty = no WHERE.
  std::function<bool(const Row&)> where;
  UdfRuns udf;
};

TEST_F(ScanPathABTest, PlansAgreeAndDoTheWorkTheDataImplies) {
  const std::vector<ScanCase> cases = {
      // WHERE on the first column: decided from an overflow record's first
      // chunk; b is decoded (and its chain reassembled) only for passes.
      {"SELECT id, length(b) FROM t WHERE id < 60",
       [](const Row& r) { return r.id < 60; }, UdfRuns::kPerPassingRow},
      // WHERE on the last column: lies past the first chunk.
      {"SELECT id, tag FROM t WHERE v > 50",
       [](const Row& r) { return r.v && *r.v > 50; }, UdfRuns::kNever},
      {"SELECT * FROM t", {}, UdfRuns::kNever},
      {"SELECT * FROM t WHERE id >= 150 ORDER BY v",
       [](const Row& r) { return r.id >= 150; }, UdfRuns::kNever},
      {"SELECT id, length(b) FROM t WHERE v < 30 ORDER BY v DESC",
       [](const Row& r) { return r.v && *r.v < 30; },
       UdfRuns::kPerPassingRow},
      {"SELECT tag, COUNT(*), SUM(v), MAX(length(b)) FROM t "
       "WHERE id % 3 = 0 GROUP BY tag",
       [](const Row& r) { return r.id % 3 == 0; }, UdfRuns::kPerPassingRow},
      {"SELECT COUNT(*) FROM t", {}, UdfRuns::kNever},
      // A UDF in the WHERE clause runs on every row (once per batch under
      // the batch protocol).
      {"SELECT id, v FROM t WHERE length(b) > 5000",
       [](const Row& r) { return r.b_len > 5000; }, UdfRuns::kPerRow},
  };

  for (const ScanCase& c : cases) {
    uint64_t passing = 0;
    for (int i = 0; i < kRows; ++i) {
      if (!c.where || c.where(MakeRow(i))) ++passing;
    }
    const uint64_t udf_calls = c.udf == UdfRuns::kNever        ? 0
                               : c.udf == UdfRuns::kPerRow ? kRows
                                                           : passing;
    std::vector<std::string> reference;
    for (size_t p = 0; p < dbs_.size(); ++p) {
      const PlanConfig& plan = kPlans[p];
      SCOPED_TRACE(c.sql + " [" + plan.name + "]");
      QueryResult r = MustExecute(dbs_[p].get(), c.sql);
      if (p == 0) {
        reference = SerializedRows(r);
        if (c.sql.find("COUNT") == std::string::npos) {
          EXPECT_EQ(r.rows.size(), passing);
        }
      } else {
        EXPECT_EQ(SerializedRows(r), reference);
      }
      // Serial plans count every record scanned and every row passing the
      // WHERE clause; morsel workers count neither.
      const bool serial = plan.workers == 1;
      EXPECT_EQ(Delta(r, "exec.seqscan.tuples"), serial ? kRows : 0u);
      EXPECT_EQ(Delta(r, "exec.filter.tuples"),
                serial && c.where ? passing : 0u);
      EXPECT_EQ(UdfInvocations(r), udf_calls);
      if (!serial) {
        EXPECT_GE(Delta(r, "exec.parallel.queries"), 1u);
      }
    }
  }
}

TEST_F(ScanPathABTest, ScansReadEachChainPageOnce) {
  // A heap scan that needs no column past an overflow record's first chunk
  // fetches each chain page once, plus each overflow record's chain: the
  // first chunk in place and the rest of the chain for its checks. The
  // chain page count comes from the tuple-at-a-time database itself.
  Database* db = dbs_[0].get();
  const TableInfo* table = db->catalog()->GetTable("t").value();
  TableHeap heap(db->storage(), table->first_page);
  const size_t chain_pages = heap.ListPages().value().size();
  constexpr size_t kOverflowRows = kRows / 5;
  const size_t chunk = kPageLsnOffset - 8;
  const size_t record_len = 4 + 9 + (5 + 2) + (5 + kOverflowBytes) + 9;
  const size_t pages_per_chain = (record_len + chunk - 1) / chunk;
  QueryResult r = MustExecute(db, "SELECT COUNT(*) FROM t WHERE id >= 0");
  EXPECT_EQ(Delta(r, "storage.bufferpool.hits") +
                Delta(r, "storage.bufferpool.misses"),
            chain_pages + kOverflowRows * pages_per_chain);
}

// ---------------------------------------------------------------------------
// Parallel LIMIT: stop handing out morsels once the limit is covered.
// ---------------------------------------------------------------------------

TEST(ScanPathLimitTest, ParallelLimitStopsHandingOutMorsels) {
  TempDb serial_file("scan_path_serial");
  TempDb parallel_file("scan_path_parallel");
  DatabaseOptions serial_options;
  serial_options.vectorized_execution = true;
  DatabaseOptions parallel_options = serial_options;
  parallel_options.num_workers = 4;
  auto serial = Database::Open(serial_file.path(), serial_options).value();
  auto parallel =
      Database::Open(parallel_file.path(), parallel_options).value();

  // 4,000 rows of 100 bytes: ~66 rows per page, ~16 four-page morsels.
  constexpr int kManyRows = 4000;
  for (Database* db : {serial.get(), parallel.get()}) {
    MustExecute(db, "CREATE TABLE many (id INT, b BYTEARRAY)");
    for (int start = 0; start < kManyRows; start += 200) {
      std::string sql = "INSERT INTO many VALUES ";
      for (int i = start; i < start + 200; ++i) {
        if (i > start) sql += ", ";
        sql += StringPrintf("(%d, randbytes(100, %d))", i, i);
      }
      MustExecute(db, sql);
    }
  }

  for (const char* sql :
       {"SELECT id, length(b) FROM many LIMIT 10",
        "SELECT id, length(b) FROM many WHERE id % 7 = 3 LIMIT 10"}) {
    SCOPED_TRACE(sql);
    QueryResult want = MustExecute(serial.get(), sql);
    QueryResult got = MustExecute(parallel.get(), sql);
    ASSERT_EQ(want.rows.size(), 10u);
    EXPECT_EQ(SerializedRows(got), SerializedRows(want));
    EXPECT_GE(Delta(got, "exec.parallel.queries"), 1u);
    // Each morsel stops at 10 rows, and only the morsels already handed out
    // when the limit was covered run: however the workers are scheduled,
    // at most 10 calls per morsel, far fewer than the rows (or, for the
    // WHERE, than the rows passing).
    EXPECT_LT(UdfInvocations(got), static_cast<uint64_t>(kManyRows / 10));
  }
  EXPECT_EQ(parallel->storage()->buffer_pool()->pinned_frames(), 0u);
}

// ---------------------------------------------------------------------------
// A pool far smaller than one overflow record's chain times the rows.
// ---------------------------------------------------------------------------

TEST(ScanPathPoolTest, TinyPoolEvictsOverflowPagesMidScanWithoutLeakingPins) {
  constexpr int kPoolRows = 60;
  // Even rows overflow (three overflow pages each); odd rows stay inline,
  // two to a chain page, so the chain spans several morsels.
  auto bytes_of = [](int i) -> size_t { return i % 2 == 0 ? 20000 : 3000; };
  for (const PlanConfig& plan : kPlans) {
    SCOPED_TRACE(plan.name);
    TempDb db_file(std::string("scan_path_pool_") + plan.name);
    DatabaseOptions options;
    options.buffer_pool_pages = 8;
    options.vectorized_execution = plan.vectorized;
    options.batch_size = 4;
    options.num_workers = plan.workers;
    auto db = Database::Open(db_file.path(), options).value();
    BufferPool* pool = db->storage()->buffer_pool();
    MustExecute(db.get(), "CREATE TABLE big (id INT, b BYTEARRAY, v INT)");
    for (int i = 0; i < kPoolRows; ++i) {
      MustExecute(db.get(),
                  StringPrintf("INSERT INTO big VALUES (%d, randbytes(%zu, "
                               "%d), %d)",
                               i, bytes_of(i), 500 + i, i * 3));
    }

    // The predicate's column sits in each first chunk; the projection's
    // does not.
    QueryResult prefix =
        MustExecute(db.get(), "SELECT id, v FROM big WHERE id % 3 = 0");
    // Small overflow stubs fill gaps on earlier chain pages, so scan order
    // is not insertion order.
    ASSERT_EQ(prefix.rows.size(), static_cast<size_t>(kPoolRows / 3));
    std::set<int64_t> ids;
    for (const Tuple& t : prefix.rows) {
      const int64_t id = t.value(0).AsInt();
      EXPECT_EQ(id % 3, 0);
      EXPECT_EQ(t.value(1).AsInt(), id * 3);
      ids.insert(id);
    }
    EXPECT_EQ(ids.size(), prefix.rows.size());
    EXPECT_GT(Delta(prefix, "storage.bufferpool.evictions"), 0u);
    // A cursor pins up to three frames and one frame stays for readahead,
    // so the 8-page pool runs two of the four workers asked for.
    EXPECT_EQ(Delta(prefix, "exec.parallel.workers"),
              plan.workers > 1 ? 2u : 0u);
    EXPECT_EQ(pool->pinned_frames(), 0u);

    // Every record reassembled: the predicate reads the last column.
    QueryResult whole = MustExecute(db.get(), "SELECT * FROM big WHERE v >= 0");
    ASSERT_EQ(whole.rows.size(), static_cast<size_t>(kPoolRows));
    ids.clear();
    for (const Tuple& t : whole.rows) {
      const int i = static_cast<int>(t.value(0).AsInt());
      EXPECT_EQ(t.value(1).AsBytes(), Random(500 + i).Bytes(bytes_of(i))) << i;
      EXPECT_EQ(t.value(2).AsInt(), i * 3);
      ids.insert(i);
    }
    EXPECT_EQ(ids.size(), static_cast<size_t>(kPoolRows));
    EXPECT_EQ(pool->pinned_frames(), 0u);

    QueryResult count = MustExecute(db.get(), "SELECT COUNT(*) FROM big");
    EXPECT_EQ(count.rows[0].value(0).AsInt(), kPoolRows);
    EXPECT_EQ(pool->pinned_frames(), 0u);

    // DELETE and UPDATE collect their target rows through the same loop.
    EXPECT_EQ(MustExecute(db.get(), "UPDATE big SET v = v + 1 WHERE id < 5")
                  .rows_affected,
              5u);
    EXPECT_EQ(MustExecute(db.get(), "DELETE FROM big WHERE v > 100")
                  .rows_affected,
              static_cast<uint64_t>(kPoolRows - 34));
    EXPECT_EQ(pool->pinned_frames(), 0u);
    QueryResult left =
        MustExecute(db.get(), "SELECT SUM(v), MIN(length(b)) FROM big");
    int64_t sum = 5;
    for (int i = 0; i < 34; ++i) sum += i * 3;
    EXPECT_EQ(left.rows[0].value(0).AsInt(), sum);
    EXPECT_EQ(left.rows[0].value(1).AsInt(), static_cast<int64_t>(3000));
    EXPECT_EQ(pool->pinned_frames(), 0u);
  }
}

}  // namespace
}  // namespace jaguar
