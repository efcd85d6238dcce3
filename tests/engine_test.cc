// End-to-end tests for the engine: SQL over the storage stack, expression
// semantics, builtins, catalog persistence, UDF invocation (Design 1), the
// LOB store and server callbacks.

#include <gtest/gtest.h>


#include "common/random.h"
#include "engine/database.h"
#include "temp_db.h"
#include "udf/generic_udf.h"

namespace jaguar {
namespace {

class EngineTest : public ::testing::Test {
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

  TempDb db_file_{"engine_test"};
  std::string path_ = db_file_.path();
  std::unique_ptr<Database> db_;
};

TEST_F(EngineTest, CreateInsertSelect) {
  MustExecute("CREATE TABLE t (a INT, b STRING)");
  QueryResult ins = MustExecute("INSERT INTO t VALUES (1, 'x'), (2, 'y')");
  EXPECT_EQ(ins.rows_affected, 2u);
  QueryResult sel = MustExecute("SELECT * FROM t");
  ASSERT_EQ(sel.rows.size(), 2u);
  EXPECT_EQ(sel.rows[0].value(0).AsInt(), 1);
  EXPECT_EQ(sel.rows[1].value(1).AsString(), "y");
  EXPECT_EQ(sel.schema.column(0).name, "a");
}

TEST_F(EngineTest, WherePredicatesAndProjection) {
  MustExecute("CREATE TABLE t (a INT, b STRING)");
  MustExecute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'x'), (4, 'z')");
  QueryResult r =
      MustExecute("SELECT a * 10 AS a10 FROM t WHERE b = 'x' OR a >= 4");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.schema.column(0).name, "a10");
  EXPECT_EQ(r.rows[0].value(0).AsInt(), 10);
  EXPECT_EQ(r.rows[1].value(0).AsInt(), 30);
  EXPECT_EQ(r.rows[2].value(0).AsInt(), 40);
}

TEST_F(EngineTest, TableAliasQualifiers) {
  MustExecute("CREATE TABLE Stocks (symbol STRING, type STRING, price DOUBLE)");
  MustExecute("INSERT INTO Stocks VALUES ('IBM','tech',100.0), "
              "('XOM','oil',80.0), ('MSFT','tech',200.0)");
  QueryResult r = MustExecute(
      "SELECT S.symbol FROM Stocks S WHERE S.type = 'tech' AND S.price > 150");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].value(0).AsString(), "MSFT");
  // The bare table name also works as a qualifier.
  EXPECT_EQ(MustExecute("SELECT Stocks.symbol FROM Stocks").rows.size(), 3u);
  // A wrong qualifier does not.
  EXPECT_FALSE(db_->Execute("SELECT X.symbol FROM Stocks S").ok());
}

TEST_F(EngineTest, LimitAndArithmetic) {
  MustExecute("CREATE TABLE n (v INT)");
  for (int i = 0; i < 10; ++i) {
    MustExecute("INSERT INTO n VALUES (" + std::to_string(i) + ")");
  }
  EXPECT_EQ(MustExecute("SELECT v FROM n LIMIT 3").rows.size(), 3u);
  QueryResult r = MustExecute("SELECT v % 3 FROM n WHERE v / 2 = 2 LIMIT 1");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].value(0).AsInt(), 1);  // v=4 -> 4%3
}

TEST_F(EngineTest, NullSemantics) {
  MustExecute("CREATE TABLE t (a INT, b INT)");
  MustExecute("INSERT INTO t VALUES (1, NULL), (2, 5)");
  // NULL comparisons are unknown -> filtered out.
  EXPECT_EQ(MustExecute("SELECT a FROM t WHERE b > 0").rows.size(), 1u);
  EXPECT_EQ(MustExecute("SELECT a FROM t WHERE NOT (b > 0)").rows.size(), 0u);
  // NULL propagates through arithmetic.
  QueryResult r = MustExecute("SELECT b + 1 FROM t");
  EXPECT_TRUE(r.rows[0].value(0).is_null());
  EXPECT_EQ(r.rows[1].value(0).AsInt(), 6);
  // Three-valued OR: true OR NULL = true.
  EXPECT_EQ(MustExecute("SELECT a FROM t WHERE a = 1 OR b > 99").rows.size(),
            1u);
}

TEST_F(EngineTest, DivisionByZeroFailsCleanly) {
  MustExecute("CREATE TABLE t (a INT)");
  MustExecute("INSERT INTO t VALUES (0)");
  EXPECT_TRUE(db_->Execute("SELECT 1 / a FROM t").status().IsRuntimeError());
  EXPECT_TRUE(db_->Execute("SELECT 1 % a FROM t").status().IsRuntimeError());
}

TEST_F(EngineTest, ErrorsForUnknownEntities) {
  EXPECT_TRUE(db_->Execute("SELECT * FROM missing").status().IsNotFound());
  MustExecute("CREATE TABLE t (a INT)");
  EXPECT_TRUE(db_->Execute("SELECT zz FROM t").status().IsNotFound());
  EXPECT_TRUE(db_->Execute("SELECT nofunc(a) FROM t").status().IsNotFound());
  EXPECT_TRUE(
      db_->Execute("CREATE TABLE t (a INT)").status().IsAlreadyExists());
}

TEST_F(EngineTest, InsertSchemaValidation) {
  MustExecute("CREATE TABLE t (a INT, b STRING)");
  EXPECT_FALSE(db_->Execute("INSERT INTO t VALUES (1)").ok());
  EXPECT_FALSE(db_->Execute("INSERT INTO t VALUES ('x', 'y')").ok());
  // NULLs are accepted for any column.
  EXPECT_TRUE(db_->Execute("INSERT INTO t VALUES (NULL, NULL)").ok());
  // INT literal widens into DOUBLE column.
  MustExecute("CREATE TABLE d (x DOUBLE)");
  MustExecute("INSERT INTO d VALUES (3)");
  EXPECT_EQ(MustExecute("SELECT x FROM d").rows[0].value(0).AsDouble(), 3.0);
}

TEST_F(EngineTest, FailedMultiRowInsertChangesNothing) {
  MustExecute("CREATE TABLE t (a INT, b STRING)");
  MustExecute("CREATE INDEX t_b ON t (b)");
  MustExecute("INSERT INTO t VALUES (0, 'z')");
  // The second row fails the schema check, and in the next statement the
  // second row's key exceeds the index key limit: every row is evaluated
  // and validated before the first heap write, so the valid first rows do
  // not land either.
  Result<QueryResult> bad = db_->Execute("INSERT INTO t VALUES (1, 'a'), (2, 3)");
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsInvalidArgument()) << bad.status();
  bad = db_->Execute("INSERT INTO t VALUES (3, 'c'), (4, '" +
                     std::string(2000, 'k') + "')");
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsInvalidArgument()) << bad.status();

  auto expect_unchanged = [&] {
    QueryResult all = MustExecute("SELECT * FROM t");
    ASSERT_EQ(all.rows.size(), 1u);
    EXPECT_EQ(all.rows[0].ToString(), "(0, 'z')");
    // The index holds no entry of the failed statements either.
    for (const char* key : {"a", "c"}) {
      QueryResult hit = MustExecute(
          std::string("SELECT a FROM t WHERE b = '") + key + "'");
      EXPECT_EQ(hit.rows.size(), 0u) << key;
      EXPECT_EQ(hit.metrics_delta.at("exec.index.scans"), 1u);
    }
  };
  expect_unchanged();
  db_.reset();
  db_ = Database::Open(path_).value();
  expect_unchanged();
}

TEST_F(EngineTest, BuiltinsWork) {
  MustExecute("CREATE TABLE r (data BYTEARRAY)");
  MustExecute("INSERT INTO r VALUES (randbytes(100, 7)), (zerobytes(5))");
  QueryResult r = MustExecute("SELECT length(data) FROM r");
  EXPECT_EQ(r.rows[0].value(0).AsInt(), 100);
  EXPECT_EQ(r.rows[1].value(0).AsInt(), 5);
  // byte_at is bounds checked.
  EXPECT_TRUE(MustExecute("SELECT byte_at(data, 0) FROM r LIMIT 1")
                  .rows[0]
                  .value(0)
                  .type() == TypeId::kInt);
  EXPECT_TRUE(db_->Execute("SELECT byte_at(data, 1000) FROM r")
                  .status()
                  .IsRuntimeError());
  // randbytes is deterministic per seed.
  QueryResult again = MustExecute("SELECT byte_at(randbytes(10, 3), 4) AS v "
                                  "FROM r LIMIT 1");
  QueryResult again2 = MustExecute("SELECT byte_at(randbytes(10, 3), 4) AS v "
                                   "FROM r LIMIT 1");
  EXPECT_TRUE(again.rows[0].value(0).Equals(again2.rows[0].value(0)));
}

TEST_F(EngineTest, PersistenceAcrossReopen) {
  MustExecute("CREATE TABLE t (a INT, blob BYTEARRAY)");
  MustExecute("INSERT INTO t VALUES (1, randbytes(20000, 1))");
  ASSERT_TRUE(db_->Flush().ok());
  db_.reset();
  db_ = Database::Open(path_).value();
  QueryResult r = MustExecute("SELECT a, length(blob) FROM t");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].value(0).AsInt(), 1);
  EXPECT_EQ(r.rows[0].value(1).AsInt(), 20000);
}

TEST_F(EngineTest, DropTableFreesAndForgets) {
  MustExecute("CREATE TABLE t (a INT)");
  MustExecute("INSERT INTO t VALUES (1)");
  MustExecute("DROP TABLE t");
  EXPECT_TRUE(db_->Execute("SELECT * FROM t").status().IsNotFound());
  // Name is reusable.
  MustExecute("CREATE TABLE t (b STRING)");
  EXPECT_EQ(MustExecute("SELECT * FROM t").rows.size(), 0u);
  // The hidden LOB table is protected.
  EXPECT_FALSE(db_->Execute("DROP TABLE __lobs").ok());
}

TEST_F(EngineTest, GenericUdfDesign1EndToEnd) {
  // The paper's experiment query shape (Section 5.1), Design 1.
  MustExecute("CREATE TABLE Rel100 (ByteArray BYTEARRAY)");
  MustExecute("INSERT INTO Rel100 VALUES (randbytes(100, 11)), "
              "(randbytes(100, 12))");
  QueryResult r = MustExecute(
      "SELECT generic_udf(R.ByteArray, 10, 2, 3) FROM Rel100 R");
  ASSERT_EQ(r.rows.size(), 2u);
  // Differential check against the pure reference model.
  Random rng1(11), rng2(12);
  EXPECT_EQ(r.rows[0].value(0).AsInt(),
            GenericUdfExpected(rng1.Bytes(100), 10, 2, 3));
  EXPECT_EQ(r.rows[1].value(0).AsInt(),
            GenericUdfExpected(rng2.Bytes(100), 10, 2, 3));
  // The three callbacks per invocation hit the server handler.
  EXPECT_EQ(db_->callbacks_served(), 6u);
}

TEST_F(EngineTest, GenericUdfCheckedMatchesUnchecked) {
  MustExecute("CREATE TABLE r (b BYTEARRAY)");
  MustExecute("INSERT INTO r VALUES (randbytes(500, 5))");
  QueryResult a =
      MustExecute("SELECT generic_udf(b, 100, 3, 0) FROM r");
  QueryResult b =
      MustExecute("SELECT generic_udf_checked(b, 100, 3, 0) FROM r");
  EXPECT_EQ(a.rows[0].value(0).AsInt(), b.rows[0].value(0).AsInt());
}

TEST_F(EngineTest, UdfCallbackQuotaEnforced) {
  DatabaseOptions opts;
  opts.udf_callback_quota = 2;
  db_.reset();
  db_file_.Remove();
  db_ = Database::Open(path_, opts).value();
  MustExecute("CREATE TABLE r (b BYTEARRAY)");
  MustExecute("INSERT INTO r VALUES (zerobytes(1))");
  EXPECT_TRUE(db_->Execute("SELECT generic_udf(b, 0, 0, 2) FROM r").ok());
  EXPECT_TRUE(db_->Execute("SELECT generic_udf(b, 0, 0, 3) FROM r")
                  .status()
                  .IsResourceExhausted());
}

TEST_F(EngineTest, RegisteredUdfDesignSelection) {
  // Register the generic UDF under a new name, with the checked design.
  UdfInfo info;
  info.name = "MyUdf";
  info.language = UdfLanguage::kNativeChecked;
  info.return_type = TypeId::kInt;
  info.arg_types = {TypeId::kBytes, TypeId::kInt, TypeId::kInt, TypeId::kInt};
  info.impl_name = "generic_udf_checked";
  ASSERT_TRUE(db_->RegisterUdf(info).ok());

  MustExecute("CREATE TABLE r (b BYTEARRAY)");
  MustExecute("INSERT INTO r VALUES (randbytes(64, 3))");
  QueryResult r = MustExecute("SELECT MyUdf(b, 5, 1, 0) FROM r");
  EXPECT_EQ(r.rows[0].value(0).AsInt(),
            GenericUdfExpected(Random(3).Bytes(64), 5, 1, 0));

  // Registration persists across reopen.
  ASSERT_TRUE(db_->Flush().ok());
  db_.reset();
  db_ = Database::Open(path_).value();
  EXPECT_TRUE(db_->Execute("SELECT MyUdf(b, 5, 1, 0) FROM r").ok());
  // Duplicate registration fails; drop works.
  EXPECT_TRUE(db_->RegisterUdf(info).IsAlreadyExists());
  EXPECT_TRUE(db_->DropUdf("myudf").ok());
  EXPECT_TRUE(db_->Execute("SELECT MyUdf(b, 5, 1, 0) FROM r")
                  .status()
                  .IsNotFound());
}

TEST_F(EngineTest, UdfArgumentTypeChecking) {
  MustExecute("CREATE TABLE r (b BYTEARRAY, s STRING)");
  MustExecute("INSERT INTO r VALUES (zerobytes(1), 'x')");
  EXPECT_TRUE(db_->Execute("SELECT generic_udf(s, 1, 1, 1) FROM r")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(db_->Execute("SELECT generic_udf(b, 1) FROM r")
                  .status()
                  .IsInvalidArgument());
}

TEST_F(EngineTest, LobStoreAndCallbacks) {
  Random rng(77);
  auto img = rng.Bytes(5000);
  int64_t handle = db_->StoreLob(img).value();
  // Ranged fetch.
  auto clip = db_->FetchLob(handle, 1000, 100).value();
  EXPECT_EQ(clip, std::vector<uint8_t>(img.begin() + 1000,
                                       img.begin() + 1100));
  // Clamped at end.
  EXPECT_EQ(db_->FetchLob(handle, 4990, 100).value().size(), 10u);
  EXPECT_EQ(db_->FetchLob(handle, 9999, 10).value().size(), 0u);
  // Size callback (kind 1).
  EXPECT_EQ(db_->Callback(1, handle).value(), 5000);
  EXPECT_TRUE(db_->FetchLob(999, 0, 1).status().IsNotFound());
  // LOBs persist.
  ASSERT_TRUE(db_->Flush().ok());
  db_.reset();
  db_ = Database::Open(path_).value();
  EXPECT_EQ(db_->FetchLob(handle, 0, 5000).value(), img);
  // New handles don't collide after reopen.
  int64_t h2 = db_->StoreLob({1, 2, 3}).value();
  EXPECT_NE(h2, handle);
}

TEST_F(EngineTest, PrettyPrint) {
  MustExecute("CREATE TABLE t (a INT, b STRING)");
  MustExecute("INSERT INTO t VALUES (1, 'hello')");
  std::string pretty = MustExecute("SELECT * FROM t").ToPrettyString();
  EXPECT_NE(pretty.find("a"), std::string::npos);
  EXPECT_NE(pretty.find("'hello'"), std::string::npos);
  EXPECT_NE(pretty.find("1 row(s)"), std::string::npos);
}

TEST_F(EngineTest, TenThousandTupleScan) {
  // The paper's workload scale: 10,000 tuples.
  MustExecute("CREATE TABLE Rel1 (ByteArray BYTEARRAY)");
  for (int batch = 0; batch < 10; ++batch) {
    std::string sql = "INSERT INTO Rel1 VALUES ";
    for (int i = 0; i < 1000; ++i) {
      if (i > 0) sql += ", ";
      sql += "(randbytes(1, " + std::to_string(batch * 1000 + i) + "))";
    }
    MustExecute(sql);
  }
  QueryResult r = MustExecute(
      "SELECT generic_udf(ByteArray, 0, 0, 0) FROM Rel1");
  EXPECT_EQ(r.rows.size(), 10000u);
}

}  // namespace
}  // namespace jaguar
