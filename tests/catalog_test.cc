// Unit tests for src/catalog: table and UDF registrations, persistence
// across reopen, rename-free drop/recreate cycles, and corruption handling.

#include <gtest/gtest.h>


#include "catalog/catalog.h"
#include "common/random.h"
#include "temp_db.h"

namespace jaguar {
namespace {

class CatalogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Open();
  }
  void TearDown() override {
    catalog_.reset();
    engine_->Close().ok();
    engine_.reset();
  }

  void Open() {
    engine_ = StorageEngine::Open(path_).value();
    catalog_ = Catalog::Open(engine_.get()).value();
  }
  void Reopen() {
    catalog_.reset();
    ASSERT_TRUE(engine_->Close().ok());
    Open();
  }

  TempDb db_file_{"catalog"};
  std::string path_ = db_file_.path();
  std::unique_ptr<StorageEngine> engine_;
  std::unique_ptr<Catalog> catalog_;
};

TEST_F(CatalogTest, CreateGetDropTable) {
  Schema schema({{"a", TypeId::kInt}, {"b", TypeId::kBytes}});
  ASSERT_TRUE(catalog_->CreateTable("T", schema).ok());
  const TableInfo* info = catalog_->GetTable("t").value();  // case-insensitive
  EXPECT_EQ(info->name, "T");
  EXPECT_EQ(info->schema, schema);
  EXPECT_NE(info->first_page, kInvalidPageId);

  EXPECT_TRUE(catalog_->CreateTable("t", schema).IsAlreadyExists());
  EXPECT_TRUE(catalog_->CreateTable("empty", Schema()).IsInvalidArgument());

  ASSERT_TRUE(catalog_->DropTable("T").ok());
  EXPECT_TRUE(catalog_->GetTable("T").status().IsNotFound());
  EXPECT_TRUE(catalog_->DropTable("T").IsNotFound());
  // Name reusable with a different schema.
  ASSERT_TRUE(catalog_->CreateTable("T", Schema({{"x", TypeId::kString}})).ok());
  EXPECT_EQ(catalog_->GetTable("T").value()->schema.num_columns(), 1u);
}

TEST_F(CatalogTest, ListTablesSorted) {
  Schema s({{"a", TypeId::kInt}});
  for (const char* name : {"zeta", "alpha", "Mid"}) {
    ASSERT_TRUE(catalog_->CreateTable(name, s).ok());
  }
  // Keys are lower-cased, so listing is case-insensitively sorted.
  EXPECT_EQ(catalog_->ListTables(),
            (std::vector<std::string>{"alpha", "Mid", "zeta"}));
}

TEST_F(CatalogTest, EverythingPersistsAcrossReopen) {
  Schema s({{"a", TypeId::kInt}, {"blob", TypeId::kBytes}});
  ASSERT_TRUE(catalog_->CreateTable("data", s).ok());
  PageId first = catalog_->GetTable("data").value()->first_page;

  UdfInfo udf;
  udf.name = "Score";
  udf.language = UdfLanguage::kJJavaIsolated;
  udf.return_type = TypeId::kInt;
  udf.arg_types = {TypeId::kBytes, TypeId::kInt};
  udf.impl_name = "Score.run";
  udf.payload = Random(7).Bytes(3000);
  ASSERT_TRUE(catalog_->RegisterUdf(udf).ok());

  Reopen();

  const TableInfo* table = catalog_->GetTable("data").value();
  EXPECT_EQ(table->schema, s);
  EXPECT_EQ(table->first_page, first);

  const UdfInfo* loaded = catalog_->GetUdf("score").value();
  EXPECT_EQ(loaded->name, "Score");
  EXPECT_EQ(loaded->language, UdfLanguage::kJJavaIsolated);
  EXPECT_EQ(loaded->arg_types, udf.arg_types);
  EXPECT_EQ(loaded->impl_name, "Score.run");
  EXPECT_EQ(loaded->payload, udf.payload);
}

TEST_F(CatalogTest, ManyEntriesAndLargePayloadsSurviveRewrites) {
  // The catalog rewrites its heap on every mutation; hammer that path with
  // entries big enough to need overflow pages.
  Schema s({{"a", TypeId::kInt}});
  Random rng(3);
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(catalog_->CreateTable("t" + std::to_string(i), s).ok());
    UdfInfo udf;
    udf.name = "udf" + std::to_string(i);
    udf.language = UdfLanguage::kJJava;
    udf.return_type = TypeId::kInt;
    udf.arg_types = {TypeId::kBytes};
    udf.impl_name = "C.m";
    udf.payload = rng.Bytes(static_cast<size_t>(1000 * (i % 20)));
    ASSERT_TRUE(catalog_->RegisterUdf(udf).ok());
  }
  // Interleave drops.
  for (int i = 0; i < 30; i += 3) {
    ASSERT_TRUE(catalog_->DropTable("t" + std::to_string(i)).ok());
    ASSERT_TRUE(catalog_->DropUdf("udf" + std::to_string(i)).ok());
  }
  Reopen();
  EXPECT_EQ(catalog_->ListTables().size(), 20u);
  EXPECT_EQ(catalog_->ListUdfs().size(), 20u);
  EXPECT_EQ(catalog_->GetUdf("udf19").value()->payload.size(), 19000u);
  EXPECT_TRUE(catalog_->GetTable("t1").ok());   // survivor
  EXPECT_TRUE(catalog_->GetTable("t0").status().IsNotFound());  // dropped
  EXPECT_TRUE(catalog_->GetTable("t27").status().IsNotFound());
}

TEST_F(CatalogTest, UdfDuplicateAndDropSemantics) {
  UdfInfo udf;
  udf.name = "F";
  udf.impl_name = "x";
  ASSERT_TRUE(catalog_->RegisterUdf(udf).ok());
  EXPECT_TRUE(catalog_->RegisterUdf(udf).IsAlreadyExists());
  // Case-insensitive identity.
  udf.name = "f";
  EXPECT_TRUE(catalog_->RegisterUdf(udf).IsAlreadyExists());
  ASSERT_TRUE(catalog_->DropUdf("F").ok());
  EXPECT_TRUE(catalog_->DropUdf("F").IsNotFound());
}

TEST_F(CatalogTest, TableAndUdfNamespacesAreSeparate) {
  Schema s({{"a", TypeId::kInt}});
  ASSERT_TRUE(catalog_->CreateTable("same_name", s).ok());
  UdfInfo udf;
  udf.name = "same_name";
  udf.impl_name = "x";
  EXPECT_TRUE(catalog_->RegisterUdf(udf).ok());
  Reopen();
  EXPECT_TRUE(catalog_->GetTable("same_name").ok());
  EXPECT_TRUE(catalog_->GetUdf("same_name").ok());
}

}  // namespace
}  // namespace jaguar
