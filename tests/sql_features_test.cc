// Tests for the extended SQL surface: aggregates (COUNT/SUM/AVG/MIN/MAX,
// COUNT(*)), ORDER BY [ASC|DESC], DELETE FROM ... WHERE, and their
// interaction with UDFs and NULLs. Plus the security audit log (the
// Section 6.1 capability the paper found missing in Java).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "engine/database.h"
#include "jjc/jjc.h"
#include "temp_db.h"

namespace jaguar {
namespace {

class SqlFeaturesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = Database::Open(path_).value();
    MustExecute("CREATE TABLE orders (id INT, customer STRING, total DOUBLE, "
                "qty INT)");
    MustExecute("INSERT INTO orders VALUES "
                "(1, 'alice', 10.5, 3), "
                "(2, 'bob', 20.0, 1), "
                "(3, 'alice', 7.25, 2), "
                "(4, 'carol', 99.0, 7), "
                "(5, 'bob', NULL, NULL)");
  }
  void TearDown() override {
    db_.reset();
  }

  QueryResult MustExecute(const std::string& sql) {
    Result<QueryResult> r = db_->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status();
    return r.ok() ? std::move(r).value() : QueryResult{};
  }

  static uint64_t MetricDelta(const QueryResult& r, const std::string& name) {
    auto it = r.metrics_delta.find(name);
    return it != r.metrics_delta.end() ? it->second : uint64_t{0};
  }

  TempDb db_file_{"sqlf"};
  std::string path_ = db_file_.path();
  std::unique_ptr<Database> db_;
};

TEST_F(SqlFeaturesTest, CountStarAndCountColumn) {
  QueryResult r = MustExecute("SELECT COUNT(*) FROM orders");
  EXPECT_EQ(r.rows[0].value(0).AsInt(), 5);
  // COUNT(col) ignores NULLs.
  r = MustExecute("SELECT COUNT(total) FROM orders");
  EXPECT_EQ(r.rows[0].value(0).AsInt(), 4);
  // COUNT under a predicate.
  r = MustExecute("SELECT COUNT(*) FROM orders WHERE customer = 'alice'");
  EXPECT_EQ(r.rows[0].value(0).AsInt(), 2);
}

TEST_F(SqlFeaturesTest, SumAvgMinMax) {
  QueryResult r = MustExecute(
      "SELECT SUM(total) AS s, AVG(total) AS a, MIN(total) AS lo, "
      "MAX(total) AS hi, SUM(qty) FROM orders");
  EXPECT_DOUBLE_EQ(r.rows[0].value(0).AsDouble(), 10.5 + 20.0 + 7.25 + 99.0);
  EXPECT_DOUBLE_EQ(r.rows[0].value(1).AsDouble(),
                   (10.5 + 20.0 + 7.25 + 99.0) / 4);
  EXPECT_DOUBLE_EQ(r.rows[0].value(2).AsDouble(), 7.25);
  EXPECT_DOUBLE_EQ(r.rows[0].value(3).AsDouble(), 99.0);
  // Integer SUM stays an integer.
  EXPECT_EQ(r.rows[0].value(4).AsInt(), 13);
  EXPECT_EQ(r.schema.column(0).name, "s");
  EXPECT_EQ(r.schema.column(1).name, "a");
}

TEST_F(SqlFeaturesTest, AggregatesOverExpressionsAndEmptyInput) {
  QueryResult r = MustExecute(
      "SELECT SUM(qty * 2) FROM orders WHERE customer = 'alice'");
  EXPECT_EQ(r.rows[0].value(0).AsInt(), (3 + 2) * 2);
  // Empty input: COUNT is 0, the others are NULL.
  r = MustExecute("SELECT COUNT(*), SUM(qty), MIN(total) FROM orders "
                  "WHERE id > 100");
  EXPECT_EQ(r.rows[0].value(0).AsInt(), 0);
  EXPECT_TRUE(r.rows[0].value(1).is_null());
  EXPECT_TRUE(r.rows[0].value(2).is_null());
}

TEST_F(SqlFeaturesTest, AggregateErrors) {
  EXPECT_TRUE(db_->Execute("SELECT id, COUNT(*) FROM orders")
                  .status()
                  .IsNotSupported());  // no GROUP BY
  EXPECT_FALSE(db_->Execute("SELECT SUM(customer) FROM orders").ok());
}

TEST_F(SqlFeaturesTest, OrderByAscDescAndExpressions) {
  QueryResult r = MustExecute("SELECT id FROM orders WHERE qty > 0 "
                              "ORDER BY total");
  ASSERT_EQ(r.rows.size(), 4u);
  EXPECT_EQ(r.rows[0].value(0).AsInt(), 3);   // 7.25
  EXPECT_EQ(r.rows[3].value(0).AsInt(), 4);   // 99.0

  r = MustExecute("SELECT id FROM orders WHERE qty > 0 "
                  "ORDER BY total DESC LIMIT 2");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0].value(0).AsInt(), 4);
  EXPECT_EQ(r.rows[1].value(0).AsInt(), 2);

  // Order by an expression over columns.
  r = MustExecute("SELECT id FROM orders WHERE qty > 0 ORDER BY qty * -1");
  EXPECT_EQ(r.rows[0].value(0).AsInt(), 4);  // qty 7 first
}

TEST_F(SqlFeaturesTest, OrderByStringsAndNulls) {
  QueryResult r = MustExecute("SELECT customer FROM orders ORDER BY customer");
  EXPECT_EQ(r.rows[0].value(0).AsString(), "alice");
  EXPECT_EQ(r.rows.back().value(0).AsString(), "carol");
  // NULL keys sort first ascending.
  r = MustExecute("SELECT id FROM orders ORDER BY total");
  EXPECT_EQ(r.rows[0].value(0).AsInt(), 5);
}

TEST_F(SqlFeaturesTest, DeleteWithPredicate) {
  QueryResult r = MustExecute("DELETE FROM orders WHERE customer = 'bob'");
  EXPECT_EQ(r.rows_affected, 2u);
  EXPECT_EQ(MustExecute("SELECT COUNT(*) FROM orders").rows[0].value(0).AsInt(),
            3);
  // Delete everything.
  r = MustExecute("DELETE FROM orders");
  EXPECT_EQ(r.rows_affected, 3u);
  EXPECT_EQ(MustExecute("SELECT COUNT(*) FROM orders").rows[0].value(0).AsInt(),
            0);
  // Table still usable.
  MustExecute("INSERT INTO orders VALUES (9, 'dave', 1.0, 1)");
  EXPECT_EQ(MustExecute("SELECT COUNT(*) FROM orders").rows[0].value(0).AsInt(),
            1);
}

TEST_F(SqlFeaturesTest, DeleteErrors) {
  EXPECT_TRUE(db_->Execute("DELETE FROM missing").status().IsNotFound());
  EXPECT_TRUE(db_->Execute("DELETE FROM __lobs").status().IsInvalidArgument());
}

TEST_F(SqlFeaturesTest, UdfsInsideAggregatesOrderByAndDelete) {
  MustExecute("CREATE TABLE blobs (id INT, b BYTEARRAY)");
  MustExecute("INSERT INTO blobs VALUES (1, randbytes(10, 1)), "
              "(2, randbytes(300, 2)), (3, randbytes(90, 3))");
  // Aggregate over a UDF result.
  QueryResult r = MustExecute("SELECT MAX(length(b)) FROM blobs");
  EXPECT_EQ(r.rows[0].value(0).AsInt(), 300);
  // ORDER BY a UDF result.
  r = MustExecute("SELECT id FROM blobs ORDER BY length(b) DESC");
  EXPECT_EQ(r.rows[0].value(0).AsInt(), 2);
  // DELETE with a UDF predicate.
  r = MustExecute("DELETE FROM blobs WHERE length(b) > 100");
  EXPECT_EQ(r.rows_affected, 1u);
  EXPECT_EQ(MustExecute("SELECT COUNT(*) FROM blobs").rows[0].value(0).AsInt(),
            2);
}

TEST_F(SqlFeaturesTest, AuditLogTracesViolationsToTheUdf) {
  // A privileged native the UDF is not granted.
  ASSERT_TRUE(db_->vm()
                  ->RegisterNative({"Server.secrets",
                                    jvm::Signature::Parse("()I").value(),
                                    "server.secrets",
                                    [](jvm::NativeCallInfo* info) {
                                      info->result = 42;
                                      return Status::OK();
                                    }})
                  .ok());
  jjc::CompileOptions copts;
  copts.native_decls["Server.secrets"] = "()I";
  UdfInfo info;
  info.name = "snoop";
  info.language = UdfLanguage::kJJava;
  info.return_type = TypeId::kInt;
  info.arg_types = {TypeId::kInt};
  info.impl_name = "Snoop.run";
  info.payload =
      jjc::Compile("class Snoop { static int run(int x) "
                   "{ return Server.secrets(); } }",
                   copts)
          .value()
          .Serialize();
  ASSERT_TRUE(db_->RegisterUdf(info).ok());

  uint64_t denials_before = db_->vm()->audit_log()->denials();
  Result<QueryResult> r = db_->Execute("SELECT snoop(id) FROM orders LIMIT 2");
  ASSERT_TRUE(r.status().IsSecurityViolation());
  // The violation names the principal...
  EXPECT_NE(r.status().message().find("snoop"), std::string::npos);
  // ...and is recorded in the audit trail, attributable to the UDF.
  EXPECT_GT(db_->vm()->audit_log()->denials(), denials_before);
  auto denials = db_->vm()->audit_log()->DenialsFor("snoop");
  ASSERT_FALSE(denials.empty());
  EXPECT_EQ(denials[0].permission, "server.secrets");

  // Legitimate callbacks are audited as grants.
  MustExecute("CREATE TABLE r2 (b BYTEARRAY)");
  MustExecute("INSERT INTO r2 VALUES (zerobytes(1))");
  UdfInfo ok_udf;
  ok_udf.name = "pinger";
  ok_udf.language = UdfLanguage::kJJava;
  ok_udf.return_type = TypeId::kInt;
  ok_udf.arg_types = {TypeId::kBytes};
  ok_udf.impl_name = "Ping.run";
  ok_udf.payload =
      jjc::Compile("class Ping { static int run(byte[] b) "
                   "{ return Jaguar.callback(0, 7); } }")
          .value()
          .Serialize();
  ASSERT_TRUE(db_->RegisterUdf(ok_udf).ok());
  uint64_t grants_before = db_->vm()->audit_log()->grants();
  MustExecute("SELECT pinger(b) FROM r2");
  EXPECT_GT(db_->vm()->audit_log()->grants(), grants_before);
}

TEST_F(SqlFeaturesTest, GroupByBasics) {
  QueryResult r = MustExecute(
      "SELECT customer, COUNT(*) AS n, SUM(qty) AS q FROM orders "
      "GROUP BY customer");
  ASSERT_EQ(r.rows.size(), 3u);  // alice, bob, carol (map-ordered by key)
  // Find alice's row.
  bool found = false;
  for (const Tuple& row : r.rows) {
    if (row.value(0).AsString() == "alice") {
      EXPECT_EQ(row.value(1).AsInt(), 2);
      EXPECT_EQ(row.value(2).AsInt(), 5);
      found = true;
    }
    if (row.value(0).AsString() == "bob") {
      EXPECT_EQ(row.value(1).AsInt(), 2);   // count(*) counts NULL rows too
      EXPECT_EQ(row.value(2).AsInt(), 1);   // SUM ignores the NULL qty
    }
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(r.schema.column(1).name, "n");
}

TEST_F(SqlFeaturesTest, GroupByExpressionsAndPredicates) {
  // Group by a computed bucket, under a WHERE filter.
  QueryResult r = MustExecute(
      "SELECT id % 2, COUNT(*) FROM orders WHERE id <= 4 GROUP BY id % 2");
  ASSERT_EQ(r.rows.size(), 2u);
  for (const Tuple& row : r.rows) {
    EXPECT_EQ(row.value(1).AsInt(), 2);  // {2,4} and {1,3}
  }
  // Empty input with GROUP BY yields zero rows (unlike the global case).
  EXPECT_EQ(MustExecute("SELECT customer, COUNT(*) FROM orders "
                        "WHERE id > 99 GROUP BY customer")
                .rows.size(),
            0u);
}

TEST_F(SqlFeaturesTest, GroupByErrors) {
  // Select item that is neither aggregate nor group key.
  EXPECT_TRUE(db_->Execute("SELECT qty, COUNT(*) FROM orders "
                           "GROUP BY customer")
                  .status()
                  .IsNotSupported());
  EXPECT_TRUE(db_->Execute("SELECT * FROM orders GROUP BY customer")
                  .status()
                  .IsNotSupported());
  // ORDER BY an aggregate that is not one of the select items.
  EXPECT_TRUE(db_->Execute("SELECT customer, COUNT(*) FROM orders "
                           "GROUP BY customer ORDER BY SUM(total)")
                  .status()
                  .IsNotSupported());
}

TEST_F(SqlFeaturesTest, GroupByComposesWithOrderBy) {
  // ORDER BY a group key.
  QueryResult r = MustExecute(
      "SELECT customer, SUM(qty) AS q FROM orders GROUP BY customer "
      "ORDER BY customer DESC");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0].value(0).AsString(), "carol");
  EXPECT_EQ(r.rows[2].value(0).AsString(), "alice");
  EXPECT_EQ(MetricDelta(r, "exec.agg.queries"), 1u);
  EXPECT_EQ(MetricDelta(r, "exec.sort.queries"), 1u);

  // ORDER BY an aggregate through its alias.
  r = MustExecute("SELECT customer, SUM(qty) AS q FROM orders "
                  "GROUP BY customer ORDER BY q DESC");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0].value(0).AsString(), "carol");  // q = 7
  EXPECT_EQ(r.rows[0].value(1).AsInt(), 7);
  EXPECT_EQ(r.rows[1].value(0).AsString(), "alice");  // q = 5
  EXPECT_EQ(r.rows[2].value(0).AsString(), "bob");    // q = 1

  // ORDER BY a textual aggregate match, bounded by LIMIT: alice and bob tie
  // at COUNT(*) = 2, and the stable order keeps them in group-key order.
  r = MustExecute("SELECT customer, COUNT(*) FROM orders GROUP BY customer "
                  "ORDER BY COUNT(*) DESC LIMIT 2");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0].value(0).AsString(), "alice");
  EXPECT_EQ(r.rows[1].value(0).AsString(), "bob");
  EXPECT_EQ(MetricDelta(r, "exec.sort.topk_queries"), 1u);
}

TEST_F(SqlFeaturesTest, AggregatesIgnoreNullsPerGroup) {
  MustExecute("CREATE TABLE n (k STRING, v INT)");
  MustExecute("INSERT INTO n VALUES ('a', NULL), ('a', NULL), ('b', 1)");
  QueryResult r = MustExecute(
      "SELECT k, COUNT(v), SUM(v), AVG(v), MIN(v), MAX(v) FROM n GROUP BY k");
  ASSERT_EQ(r.rows.size(), 2u);
  // 'a' holds only NULLs: COUNT(v) is 0, every other aggregate is NULL.
  EXPECT_EQ(r.rows[0].value(0).AsString(), "a");
  EXPECT_EQ(r.rows[0].value(1).AsInt(), 0);
  EXPECT_TRUE(r.rows[0].value(2).is_null());
  EXPECT_TRUE(r.rows[0].value(3).is_null());
  EXPECT_TRUE(r.rows[0].value(4).is_null());
  EXPECT_TRUE(r.rows[0].value(5).is_null());
  EXPECT_EQ(r.rows[1].value(0).AsString(), "b");
  EXPECT_EQ(r.rows[1].value(1).AsInt(), 1);
  EXPECT_EQ(r.rows[1].value(5).AsInt(), 1);
  EXPECT_EQ(MetricDelta(r, "exec.agg.groups"), 2u);
  EXPECT_EQ(MetricDelta(r, "exec.agg.rows"), 3u);
}

TEST_F(SqlFeaturesTest, OrderByLimitUsesTopKHeap) {
  // Bounded ORDER BY keeps a top-k heap instead of sorting everything; the
  // kept prefix must equal the full sort's prefix (NULL total sorts first).
  QueryResult bounded =
      MustExecute("SELECT id FROM orders ORDER BY total LIMIT 2");
  ASSERT_EQ(bounded.rows.size(), 2u);
  EXPECT_EQ(MetricDelta(bounded, "exec.sort.queries"), 1u);
  EXPECT_EQ(MetricDelta(bounded, "exec.sort.topk_queries"), 1u);

  QueryResult full = MustExecute("SELECT id FROM orders ORDER BY total");
  ASSERT_EQ(full.rows.size(), 5u);
  EXPECT_EQ(MetricDelta(full, "exec.sort.topk_queries"), 0u);
  EXPECT_EQ(bounded.rows[0].value(0).AsInt(), full.rows[0].value(0).AsInt());
  EXPECT_EQ(bounded.rows[1].value(0).AsInt(), full.rows[1].value(0).AsInt());

  // LIMIT 0 keeps nothing but still goes through the bounded path.
  QueryResult none =
      MustExecute("SELECT id FROM orders ORDER BY total LIMIT 0");
  EXPECT_EQ(none.rows.size(), 0u);
  EXPECT_EQ(MetricDelta(none, "exec.sort.topk_queries"), 1u);
}

TEST_F(SqlFeaturesTest, UpdateBasics) {
  QueryResult r = MustExecute(
      "UPDATE orders SET qty = qty * 10, total = total + 1.0 "
      "WHERE customer = 'alice'");
  EXPECT_EQ(r.rows_affected, 2u);
  QueryResult check = MustExecute(
      "SELECT qty, total FROM orders WHERE customer = 'alice' ORDER BY id");
  ASSERT_EQ(check.rows.size(), 2u);
  EXPECT_EQ(check.rows[0].value(0).AsInt(), 30);
  EXPECT_DOUBLE_EQ(check.rows[0].value(1).AsDouble(), 11.5);
  EXPECT_EQ(check.rows[1].value(0).AsInt(), 20);

  // Assignments see OLD values: swap-like semantics within one row.
  MustExecute("CREATE TABLE p (x INT, y INT)");
  MustExecute("INSERT INTO p VALUES (1, 2)");
  MustExecute("UPDATE p SET x = y, y = x");
  QueryResult swapped = MustExecute("SELECT x, y FROM p");
  EXPECT_EQ(swapped.rows[0].value(0).AsInt(), 2);
  EXPECT_EQ(swapped.rows[0].value(1).AsInt(), 1);

  // UPDATE without WHERE touches all rows; int widens into DOUBLE columns.
  EXPECT_EQ(MustExecute("UPDATE orders SET total = 5").rows_affected, 5u);
  EXPECT_DOUBLE_EQ(MustExecute("SELECT MIN(total) FROM orders")
                       .rows[0].value(0).AsDouble(),
                   5.0);
}

TEST_F(SqlFeaturesTest, UpdateErrors) {
  EXPECT_TRUE(db_->Execute("UPDATE missing SET a = 1").status().IsNotFound());
  EXPECT_TRUE(
      db_->Execute("UPDATE orders SET nope = 1").status().IsNotFound());
  EXPECT_TRUE(db_->Execute("UPDATE orders SET qty = 'text'")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(db_->Execute("UPDATE __lobs SET id = 1")
                  .status()
                  .IsInvalidArgument());
  // Failed updates are all-or-nothing per statement phase 1 (no partial
  // binding), so a bad value expression changes nothing.
  EXPECT_TRUE(db_->Execute("UPDATE orders SET qty = 1 / 0").status()
                  .IsRuntimeError());
  EXPECT_EQ(MustExecute("SELECT SUM(qty) FROM orders").rows[0].value(0)
                .AsInt(),
            13);
}

TEST_F(SqlFeaturesTest, UpdateWithUdfValues) {
  MustExecute("CREATE TABLE blobs2 (id INT, b BYTEARRAY, sz INT)");
  MustExecute("INSERT INTO blobs2 VALUES (1, randbytes(50, 1), 0), "
              "(2, randbytes(200, 2), 0)");
  MustExecute("UPDATE blobs2 SET sz = length(b)");
  QueryResult r = MustExecute("SELECT sz FROM blobs2 ORDER BY id");
  EXPECT_EQ(r.rows[0].value(0).AsInt(), 50);
  EXPECT_EQ(r.rows[1].value(0).AsInt(), 200);
}

// ---------------------------------------------------------------------------
// Secondary B+-tree indexes: DDL, maintenance, and the planner rule.
// ---------------------------------------------------------------------------

TEST_F(SqlFeaturesTest, CreateAndDropIndex) {
  QueryResult r = MustExecute("CREATE INDEX idx_cust ON orders (customer)");
  EXPECT_NE(r.message.find("idx_cust"), std::string::npos);

  // An equality query now runs through the index.
  r = MustExecute("SELECT id FROM orders WHERE customer = 'alice'");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(MetricDelta(r, "exec.index.scans"), 1u);
  EXPECT_EQ(MetricDelta(r, "exec.index.lookups"), 2u);
  EXPECT_EQ(MetricDelta(r, "exec.index.range_scans"), 0u);

  // DDL error cases.
  EXPECT_TRUE(db_->Execute("CREATE INDEX idx_cust ON orders (id)")
                  .status()
                  .IsAlreadyExists());
  EXPECT_TRUE(db_->Execute("CREATE INDEX i2 ON nope (x)")
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(db_->Execute("CREATE INDEX i2 ON orders (nope)")
                  .status()
                  .IsNotFound());
  // Only INT and STRING columns are indexable.
  EXPECT_TRUE(db_->Execute("CREATE INDEX i2 ON orders (total)")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(db_->Execute("CREATE INDEX i3 ON __lobs (id)")
                  .status()
                  .IsInvalidArgument());

  MustExecute("DROP INDEX idx_cust");
  EXPECT_TRUE(db_->Execute("DROP INDEX idx_cust").status().IsNotFound());
  // Back to a sequential scan, same rows.
  r = MustExecute("SELECT id FROM orders WHERE customer = 'alice'");
  EXPECT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(MetricDelta(r, "exec.index.scans"), 0u);
}

TEST_F(SqlFeaturesTest, IndexSurvivesRestartAndDropTableCascades) {
  MustExecute("CREATE INDEX idx_cust ON orders (customer)");
  db_.reset();
  db_ = Database::Open(path_).value();
  QueryResult r = MustExecute("SELECT id FROM orders WHERE customer = 'bob'");
  EXPECT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(MetricDelta(r, "exec.index.scans"), 1u);
  // Dropping the table drops its indexes with it.
  MustExecute("DROP TABLE orders");
  EXPECT_TRUE(db_->Execute("DROP INDEX idx_cust").status().IsNotFound());
}

/// Runs `where` both through the index and as a forced full scan (index
/// temporarily dropped), asserting identical ordered id lists.
class IndexAbTest : public SqlFeaturesTest {
 protected:
  std::vector<int64_t> IdsVia(const std::string& where, bool want_index) {
    QueryResult r =
        MustExecute("SELECT id FROM nums WHERE " + where + " ORDER BY id");
    EXPECT_EQ(MetricDelta(r, "exec.index.scans"), want_index ? 1u : 0u)
        << where;
    std::vector<int64_t> ids;
    for (const Tuple& t : r.rows) ids.push_back(t.value(0).AsInt());
    return ids;
  }

  void ExpectIndexAgreesWithScan(const std::string& where) {
    std::vector<int64_t> via_index = IdsVia(where, /*want_index=*/true);
    MustExecute("DROP INDEX idx_k");
    std::vector<int64_t> via_scan = IdsVia(where, /*want_index=*/false);
    MustExecute("CREATE INDEX idx_k ON nums (k)");
    EXPECT_EQ(via_index, via_scan) << where;
  }
};

TEST_F(IndexAbTest, IndexAgreesWithScanIncludingNullsAndDuplicates) {
  MustExecute("CREATE TABLE nums (id INT, k INT)");
  // Duplicate keys (k = id % 10) and a sprinkling of NULL keys.
  for (int i = 0; i < 200; ++i) {
    MustExecute(StringPrintf(
        "INSERT INTO nums VALUES (%d, %s)", i,
        i % 17 == 0 ? "NULL" : StringPrintf("%d", i % 10).c_str()));
  }
  MustExecute("CREATE INDEX idx_k ON nums (k)");

  ExpectIndexAgreesWithScan("k = 3");
  ExpectIndexAgreesWithScan("7 = k");  // literal on the left
  ExpectIndexAgreesWithScan("k < 2");
  ExpectIndexAgreesWithScan("k <= 2");
  ExpectIndexAgreesWithScan("k > 7");
  ExpectIndexAgreesWithScan("k >= 7");
  ExpectIndexAgreesWithScan("k = 42");           // no hits
  ExpectIndexAgreesWithScan("k = 3 AND id < 50");  // residual conjunct

  // NULL keys are invisible to both paths (NULL = anything is unknown).
  QueryResult r = MustExecute("SELECT COUNT(*) FROM nums WHERE k >= 0");
  EXPECT_EQ(r.rows[0].value(0).AsInt(), 188);  // 200 - 12 NULLs
}

TEST_F(IndexAbTest, MaintenanceKeepsIndexConsistent) {
  MustExecute("CREATE TABLE nums (id INT, k INT)");
  MustExecute("CREATE INDEX idx_k ON nums (k)");  // empty backfill
  for (int i = 0; i < 100; ++i) {
    MustExecute(StringPrintf("INSERT INTO nums VALUES (%d, %d)", i, i % 5));
  }
  // UPDATE moves rows between keys (delete old entry + insert new).
  MustExecute("UPDATE nums SET k = 9 WHERE k = 2");
  // Also flip some keys to NULL (entry removed, nothing inserted) and some
  // NULLs back to values.
  MustExecute("UPDATE nums SET k = NULL WHERE id < 10");
  MustExecute("UPDATE nums SET k = 7 WHERE id = 3");
  // DELETE removes entries.
  MustExecute("DELETE FROM nums WHERE k = 1");

  ExpectIndexAgreesWithScan("k = 9");
  ExpectIndexAgreesWithScan("k = 2");
  ExpectIndexAgreesWithScan("k = 7");
  ExpectIndexAgreesWithScan("k = 1");
  ExpectIndexAgreesWithScan("k >= 0");
}

TEST_F(SqlFeaturesTest, PlannerPicksIndexOnlyWhenSound) {
  MustExecute("CREATE TABLE nums (id INT, k INT, label STRING)");
  for (int i = 0; i < 50; ++i) {
    MustExecute(StringPrintf("INSERT INTO nums VALUES (%d, %d, 'r%d')", i,
                             i % 10, i));
  }
  MustExecute("CREATE INDEX idx_k ON nums (k)");

  // Type-mismatched literal (DOUBLE vs INT column): planner must decline.
  QueryResult r = MustExecute("SELECT id FROM nums WHERE k = 3.0");
  EXPECT_EQ(MetricDelta(r, "exec.index.scans"), 0u);
  // Non-conjunct position (OR): decline.
  r = MustExecute("SELECT id FROM nums WHERE k = 3 OR id = 1");
  EXPECT_EQ(MetricDelta(r, "exec.index.scans"), 0u);
  // NULL literal: decline.
  r = MustExecute("SELECT id FROM nums WHERE k = NULL");
  EXPECT_EQ(MetricDelta(r, "exec.index.scans"), 0u);
  // Unindexed column: decline.
  r = MustExecute("SELECT id FROM nums WHERE id = 3");
  EXPECT_EQ(MetricDelta(r, "exec.index.scans"), 0u);
  // Range conjunct anywhere in the AND chain: picked, marked as a range.
  r = MustExecute("SELECT id FROM nums WHERE id < 100 AND k >= 8");
  EXPECT_EQ(MetricDelta(r, "exec.index.scans"), 1u);
  EXPECT_EQ(MetricDelta(r, "exec.index.range_scans"), 1u);
  ASSERT_EQ(r.rows.size(), 10u);
}

TEST_F(SqlFeaturesTest, IndexScanSkipsUdfPredicateForNonSurvivors) {
  // The paper-motivated win: an expensive UDF predicate written FIRST in the
  // WHERE clause runs per-tuple under a full scan, but only on index
  // survivors once the indexable conjunct is extracted.
  UdfInfo g;
  g.name = "g";
  g.language = UdfLanguage::kNative;
  g.return_type = TypeId::kInt;
  g.arg_types = {TypeId::kBytes, TypeId::kInt, TypeId::kInt, TypeId::kInt};
  g.impl_name = "generic_udf";
  ASSERT_TRUE(db_->RegisterUdf(g).ok());

  const int rows = 400;
  MustExecute("CREATE TABLE rel (id INT, b BYTEARRAY)");
  for (int i = 0; i < rows; ++i) {
    MustExecute(
        StringPrintf("INSERT INTO rel VALUES (%d, randbytes(16, %d))", i, i));
  }

  const std::string sql =
      "SELECT id FROM rel WHERE g(b, 10, 1, 0) >= 0 AND id < 4";
  QueryResult full = MustExecute(sql);  // no index yet: full scan
  ASSERT_EQ(full.rows.size(), 4u);
  EXPECT_EQ(MetricDelta(full, "udf.cpp.invocations"),
            static_cast<uint64_t>(rows));

  MustExecute("CREATE INDEX idx_id ON rel (id)");
  QueryResult indexed = MustExecute(sql);
  ASSERT_EQ(indexed.rows.size(), 4u);
  EXPECT_EQ(MetricDelta(indexed, "exec.index.scans"), 1u);
  EXPECT_EQ(MetricDelta(indexed, "exec.index.lookups"), 4u);
  // 1% selectivity -> the UDF runs on exactly the 4 survivors.
  EXPECT_EQ(MetricDelta(indexed, "udf.cpp.invocations"), 4u);
}

TEST_F(SqlFeaturesTest, OversizeIndexKeyRejectedBeforeHeapMutation) {
  MustExecute("CREATE TABLE wide (id INT, s STRING)");
  MustExecute("CREATE INDEX idx_s ON wide (s)");
  MustExecute("INSERT INTO wide VALUES (1, 'ok')");
  // A key past kMaxKeyBytes fails the whole INSERT, leaving no heap row.
  std::string big(2000, 'x');
  EXPECT_TRUE(db_->Execute("INSERT INTO wide VALUES (2, '" + big + "')")
                  .status()
                  .IsInvalidArgument());
  EXPECT_EQ(MustExecute("SELECT COUNT(*) FROM wide").rows[0].value(0).AsInt(),
            1);
}

TEST_F(SqlFeaturesTest, SumOverflowSurfacesAsError) {
  MustExecute("CREATE TABLE big (v INT)");
  MustExecute(StringPrintf("INSERT INTO big VALUES (%lld), (%lld)",
                           static_cast<long long>(INT64_MAX),
                           static_cast<long long>(2)));
  Result<QueryResult> r = db_->Execute("SELECT SUM(v) FROM big");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsOutOfRange()) << r.status().ToString();
  // AVG shares the accumulator.
  EXPECT_TRUE(
      db_->Execute("SELECT AVG(v) FROM big").status().IsOutOfRange());
  // The symmetric negative boundary.
  MustExecute("CREATE TABLE small (v INT)");
  MustExecute(StringPrintf("INSERT INTO small VALUES (%lld), (%lld)",
                           static_cast<long long>(INT64_MIN + 1),
                           static_cast<long long>(-2)));
  EXPECT_TRUE(
      db_->Execute("SELECT SUM(v) FROM small").status().IsOutOfRange());
}

TEST_F(SqlFeaturesTest, ParserAcceptsNewSyntax) {
  // These exercise the parser via the engine; malformed variants fail.
  EXPECT_TRUE(db_->Execute("SELECT id FROM orders ORDER total").status()
                  .IsInvalidArgument());
  EXPECT_TRUE(db_->Execute("DELETE orders").status().IsInvalidArgument());
  EXPECT_TRUE(db_->Execute("SELECT COUNT(* FROM orders").status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace jaguar
