/// Self-tests of the benchmark: its percentile helper, the determinism of
/// its statement lists, the percentile-placement check, and the oracle.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "engine/database.h"
#include "runner.h"
#include "stats.h"
#include "udf/generic_udf.h"
#include "workload.h"

namespace perfbench {
namespace {

using jaguar::QueryResult;
using jaguar::Tuple;
using jaguar::Value;

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(PercentileTest, NearestRankWithSampleCounts) {
  Percentile p50 = NearestRank(OneTo(100), 50);
  EXPECT_EQ(p50.value, 50);
  EXPECT_EQ(p50.samples, 100u);
  EXPECT_EQ(p50.beyond, 50u);
  Percentile p90 = NearestRank(OneTo(100), 90);
  EXPECT_EQ(p90.value, 90);
  EXPECT_EQ(p90.beyond, 10u);
  Percentile small = NearestRank(OneTo(10), 90);
  EXPECT_EQ(small.value, 9);
  EXPECT_EQ(small.beyond, 1u);
  Percentile one = NearestRank({7.5}, 90);
  EXPECT_EQ(one.value, 7.5);
  EXPECT_EQ(one.beyond, 0u);
  Percentile empty = NearestRank({}, 50);
  EXPECT_EQ(empty.samples, 0u);
  EXPECT_EQ(empty.value, 0);
}

TEST(PercentileTest, MedianOfEvenAndOddCounts) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0);
}

TEST(PlacementTest, RejectsAFiftyFiftyWriteMix) {
  std::vector<int> tiers(50, 0);
  tiers.insert(tiers.end(), 50, 1);
  std::vector<std::string> errors =
      CheckPercentilePlacement("writes", tiers, {50, 90});
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("p50"), std::string::npos);
}

TEST(PlacementTest, AcceptsSeventyThirtyAndNeedsTenBeyond) {
  std::vector<int> tiers(70, 0);
  tiers.insert(tiers.end(), 30, 1);
  EXPECT_TRUE(CheckPercentilePlacement("writes", tiers, {50, 90}).empty());
  // 99 samples leave only nine above p90.
  tiers.pop_back();
  EXPECT_FALSE(CheckPercentilePlacement("writes", tiers, {50, 90}).empty());
}

TEST(PlacementTest, EveryWorkloadListIsSound) {
  for (const std::string& name : WorkloadNames()) {
    for (int seconds : {1, 10}) {
      Workload w;
      ASSERT_TRUE(MakeWorkload(name, 7, seconds, &w));
      std::vector<int> reads, writes;
      for (const Statement& st : w.measured) {
        (w.classes[st.cls].kind == Kind::kRead ? reads : writes)
            .push_back(st.tier);
      }
      EXPECT_TRUE(CheckPercentilePlacement(name, reads, {50, 90}).empty())
          << name;
      EXPECT_TRUE(CheckPercentilePlacement(name, writes, {50, 90}).empty())
          << name;
    }
  }
}

TEST(WorkloadTest, SameSeedSameBytesOtherSeedOtherList) {
  for (const std::string& name : WorkloadNames()) {
    Workload a, b, c;
    ASSERT_TRUE(MakeWorkload(name, 11, 2, &a));
    ASSERT_TRUE(MakeWorkload(name, 11, 2, &b));
    ASSERT_TRUE(MakeWorkload(name, 12, 2, &c));
    const std::string list = SerializeStatements(a);
    EXPECT_FALSE(list.empty());
    EXPECT_EQ(list, SerializeStatements(b)) << name;
    EXPECT_NE(list, SerializeStatements(c)) << name;
    EXPECT_EQ(a.load_sql, b.load_sql) << name;
  }
}

TEST(WorkloadTest, UnknownWorkloadIsRejected) {
  Workload w;
  EXPECT_FALSE(MakeWorkload("no_such_workload", 1, 1, &w));
}

TEST(OracleTest, ModelMatchesTheCppDesignOnTheSameBytes) {
  const int64_t seed = RowSeed(3, 1, 42);
  jaguar::Random rng(static_cast<uint64_t>(seed));
  const std::vector<uint8_t> bytes = rng.Bytes(100);
  for (int64_t i : {0, 1000}) {
    for (int64_t d : {0, 1}) {
      for (int64_t c : {0, 1}) {
        EXPECT_EQ(GenericExpected(ByteSum(seed, 100), i, d, c),
                  jaguar::GenericUdfExpected(bytes, i, d, c));
      }
    }
  }
}

/// Answers every statement with exactly what its expectation describes,
/// except the statement at `wrong`, whose first row gets a wrong cell.
Executor Scripted(const Workload& w, size_t wrong) {
  auto next = std::make_shared<size_t>(0);
  return [&w, wrong, next](const std::string& sql)
             -> jaguar::Result<QueryResult> {
    const size_t i = (*next)++;
    const Expected& e = *w.measured[i].expect;
    EXPECT_EQ(sql, w.measured[i].sql);
    QueryResult r;
    if (e.affected >= 0) {
      r.rows_affected = static_cast<uint64_t>(e.affected);
      return r;
    }
    for (const std::vector<int64_t>& row : e.rows) {
      std::vector<Value> values;
      for (int64_t v : row) values.push_back(Value::Int(v));
      r.rows.push_back(Tuple(std::move(values)));
    }
    if (i == wrong) {
      std::vector<Value>& cells = r.rows[0].mutable_values();
      cells[0] = Value::Int(cells[0].AsInt() + 1);
    }
    return r;
  };
}

TEST(OracleTest, InjectedWrongRowCountsAsFailed) {
  Workload w;
  ASSERT_TRUE(MakeWorkload("oltp_wire", 5, 1, &w));
  size_t wrong = 0;
  while (w.measured[wrong].expect->affected >= 0 ||
         w.measured[wrong].expect->rows.empty()) {
    ++wrong;
  }
  for (size_t inject : {w.measured.size(), wrong}) {
    std::vector<Sample> samples;
    Tally tally;
    RunClosedLoop(w, Scripted(w, inject), &samples, &tally);
    EXPECT_EQ(tally.attempted, w.measured.size());
    EXPECT_EQ(samples.size(), w.measured.size());
    EXPECT_EQ(tally.failed, inject == wrong ? 1u : 0u);
  }
}

TEST(OracleTest, ChecksRealEngineOutput) {
  namespace fs = std::filesystem;
  // Relative to the working directory, which `run.py --self-test` sets to
  // the build directory.
  const fs::path dir = "selftest-" + std::to_string(::getpid());
  fs::create_directories(dir);
  {
    auto db = jaguar::Database::Open((dir / "t.db").string()).value();
    ASSERT_TRUE(db->Execute("CREATE TABLE t (id INT, b BYTEARRAY)").ok());
    const int64_t s0 = RowSeed(9, 1, 0), s1 = RowSeed(9, 1, 1);
    ASSERT_TRUE(db->Execute("INSERT INTO t VALUES (0, randbytes(64, " +
                            std::to_string(s0) + ")), (1, randbytes(64, " +
                            std::to_string(s1) + "))")
                    .ok());
    auto r = db->Execute("SELECT id, generic_udf(b, 3, 1, 0) FROM t");
    ASSERT_TRUE(r.ok());
    Expected e;
    e.rows = {{0, GenericExpected(ByteSum(s0, 64), 3, 1, 0)},
              {1, GenericExpected(ByteSum(s1, 64), 3, 1, 0)}};
    std::string why;
    EXPECT_TRUE(CheckResult(e, *r, &why)) << why;
    e.rows[1][1] += 1;
    EXPECT_FALSE(CheckResult(e, *r, &why));
    e.rows.pop_back();
    EXPECT_FALSE(CheckResult(e, *r, &why));

    auto del = db->Execute("DELETE FROM t WHERE id = 1");
    ASSERT_TRUE(del.ok());
    Expected affected;
    affected.affected = 1;
    EXPECT_TRUE(CheckResult(affected, *del, &why)) << why;
    affected.affected = 2;
    EXPECT_FALSE(CheckResult(affected, *del, &why));
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace perfbench
