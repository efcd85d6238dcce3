// Tests for UdfManager runner caching and resolution: the "one runner per
// UDF per query plan, reused across invocations" policy (the paper's
// executor-per-query economy), observed through the udf.runner_cache_hits /
// udf.runner_cache_misses counters, plus cache invalidation on
// re-registration and the unknown-UDF error paths.

#include "temp_db.h"
#include "udf/udf_manager.h"

#include <gtest/gtest.h>
#include <unistd.h>


#include "engine/database.h"
#include "jjc/jjc.h"
#include "obs/metrics.h"
#include "udf/builtins.h"
#include "udf/generic_udf.h"

namespace jaguar {
namespace {

obs::MetricsSnapshot CacheCounters() {
  return obs::MetricsRegistry::Global()->Snapshot("udf.runner_cache");
}

uint64_t DeltaOf(const obs::MetricsSnapshot& before, const char* name) {
  obs::MetricsSnapshot delta = obs::SnapshotDelta(before, CacheCounters());
  auto it = delta.find(name);
  return it == delta.end() ? 0 : it->second;
}

// ---------------------------------------------------------------------------
// Direct manager tests (catalog-free: native-registry fallback only)
// ---------------------------------------------------------------------------

TEST(UdfManagerTest, ResolveCachesAndReusesRunner) {
  RegisterBuiltinUdfs();
  UdfManager manager(nullptr);
  TypeId return_type;
  std::vector<TypeId> arg_types;

  obs::MetricsSnapshot t0 = CacheCounters();
  UdfRunner* first = manager.Resolve("length", &return_type, &arg_types).value();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(DeltaOf(t0, "udf.runner_cache_misses"), 1u);
  EXPECT_EQ(DeltaOf(t0, "udf.runner_cache_hits"), 0u);

  obs::MetricsSnapshot t1 = CacheCounters();
  UdfRunner* second =
      manager.Resolve("length", &return_type, &arg_types).value();
  EXPECT_EQ(second, first);  // the CachedRunner is reused, not rebuilt
  EXPECT_EQ(DeltaOf(t1, "udf.runner_cache_hits"), 1u);
  EXPECT_EQ(DeltaOf(t1, "udf.runner_cache_misses"), 0u);

  // Resolution is case-insensitive and shares one cache slot.
  EXPECT_EQ(manager.Resolve("LENGTH", nullptr, nullptr).value(), first);
}

TEST(UdfManagerTest, InvalidateCacheForcesRebuild) {
  RegisterBuiltinUdfs();
  UdfManager manager(nullptr);
  UdfRunner* before = manager.Resolve("length", nullptr, nullptr).value();
  manager.InvalidateCache();
  obs::MetricsSnapshot t0 = CacheCounters();
  UdfRunner* after = manager.Resolve("length", nullptr, nullptr).value();
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(DeltaOf(t0, "udf.runner_cache_misses"), 1u);
  (void)before;  // may or may not alias `after` (allocator's choice)
}

TEST(UdfManagerTest, UnknownUdfIsNotFoundAndNotCached) {
  RegisterBuiltinUdfs();
  UdfManager manager(nullptr);
  EXPECT_TRUE(
      manager.Resolve("no_such_function", nullptr, nullptr).status()
          .IsNotFound());
  // Failures must not poison the cache with a dead entry: asking again still
  // reports NotFound (a later registration would make it resolvable).
  obs::MetricsSnapshot t0 = CacheCounters();
  EXPECT_TRUE(
      manager.Resolve("no_such_function", nullptr, nullptr).status()
          .IsNotFound());
  EXPECT_EQ(DeltaOf(t0, "udf.runner_cache_hits"), 0u);
}

// ---------------------------------------------------------------------------
// Through the engine: cache behavior across queries and re-registration
// ---------------------------------------------------------------------------

class UdfManagerE2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = Database::Open(path_).value();
    MustExecute("CREATE TABLE r (b BYTEARRAY)");
    MustExecute("INSERT INTO r VALUES (randbytes(16, 1)), (randbytes(16, 2))");
  }
  void TearDown() override {
    db_.reset();
  }

  QueryResult MustExecute(const std::string& sql) {
    Result<QueryResult> r = db_->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status();
    return r.ok() ? std::move(r).value() : QueryResult{};
  }

  void RegisterGeneric(UdfLanguage lang) {
    UdfInfo info;
    info.name = "g";
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
    ASSERT_TRUE(db_->RegisterUdf(info).ok());
  }

  TempDb db_file_{"udfmgr"};
  std::string path_ = db_file_.path();
  std::unique_ptr<Database> db_;
};

TEST_F(UdfManagerE2eTest, SecondQueryHitsTheRunnerCache) {
  RegisterGeneric(UdfLanguage::kJJava);
  QueryResult first = MustExecute("SELECT g(b, 3, 3, 0) FROM r");
  QueryResult second = MustExecute("SELECT g(b, 3, 3, 0) FROM r");
  // The first query had to build the runner; the second reuses every cached
  // runner in the plan — zero misses.
  EXPECT_GE(first.metrics_delta.count("udf.runner_cache_misses"), 1u);
  EXPECT_GE(second.metrics_delta.at("udf.runner_cache_hits"), 1u);
  EXPECT_EQ(second.metrics_delta.count("udf.runner_cache_misses"), 0u);
}

TEST_F(UdfManagerE2eTest, ReRegistrationInvalidatesCachedRunner) {
  RegisterGeneric(UdfLanguage::kJJava);
  QueryResult jni = MustExecute("SELECT g(b, 4, 4, 0) FROM r");
  EXPECT_EQ(jni.metrics_delta.at("udf.jni.invocations"), 2u);

  // Re-register `g` under Design 1. The cached JagVM runner must be dropped:
  // the next query's invocations land on the native design's counters and
  // the rebuild shows up as a cache miss.
  ASSERT_TRUE(db_->DropUdf("g").ok());
  RegisterGeneric(UdfLanguage::kNative);
  QueryResult cpp = MustExecute("SELECT g(b, 4, 4, 0) FROM r");
  EXPECT_GE(cpp.metrics_delta.at("udf.runner_cache_misses"), 1u);
  EXPECT_EQ(cpp.metrics_delta.at("udf.cpp.invocations"), 2u);
  EXPECT_EQ(cpp.metrics_delta.count("udf.jni.invocations"), 0u);

  // Both designs computed the same answer (Table 1's designs agree).
  ASSERT_EQ(jni.rows.size(), cpp.rows.size());
  for (size_t i = 0; i < jni.rows.size(); ++i) {
    EXPECT_EQ(jni.rows[i].value(0).AsInt(), cpp.rows[i].value(0).AsInt());
  }
}

TEST_F(UdfManagerE2eTest, DroppedUdfBecomesUnresolvable) {
  RegisterGeneric(UdfLanguage::kNative);
  MustExecute("SELECT g(b, 1, 1, 0) FROM r");
  ASSERT_TRUE(db_->DropUdf("g").ok());
  Result<QueryResult> r = db_->Execute("SELECT g(b, 1, 1, 0) FROM r");
  EXPECT_TRUE(r.status().IsNotFound()) << r.status();
  EXPECT_TRUE(db_->DropUdf("g").IsNotFound());  // double drop
}

TEST_F(UdfManagerE2eTest, UnknownUdfInQueryIsCleanError) {
  Result<QueryResult> r = db_->Execute("SELECT nosuch(b, 1, 1, 0) FROM r");
  EXPECT_TRUE(r.status().IsNotFound()) << r.status();
  // The engine survives; a follow-up query still works.
  MustExecute("SELECT length(b) FROM r");
}

}  // namespace
}  // namespace jaguar
