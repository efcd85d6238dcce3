// Unit tests for the page-based secondary B+-tree (src/index/btree.h):
// ordering, duplicate handling, splits across several levels, lazy deletes,
// range-scan bound semantics, WAL-backed persistence across reopen, and the
// structural invariant checker the recovery matrix leans on.

#include "index/btree.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/random.h"
#include "obs/metrics.h"
#include "storage/storage_engine.h"
#include "temp_db.h"

namespace jaguar {
namespace {

RecordId Rid(uint32_t page, uint16_t slot) {
  RecordId rid;
  rid.page_id = page;
  rid.slot = slot;
  return rid;
}

/// ~200-byte deterministic string key: ~38 entries per leaf, so a few
/// thousand keys build a three-level tree.
std::string WideKey(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08d", i);
  return std::string(buf) + std::string(192, 'k');
}

TEST(BTreeTest, EmptyTreeScansAndSearchesEmpty) {
  TempDb db("empty");
  auto engine = StorageEngine::Open(db.path()).value();
  PageId root = BTree::Create(engine.get()).value();
  BTree tree(engine.get(), root);
  EXPECT_EQ(tree.root(), root);
  EXPECT_TRUE(tree.SearchEqual(Value::Int(7)).value().empty());
  EXPECT_TRUE(tree.Scan(std::nullopt, std::nullopt).value().empty());
  EXPECT_EQ(tree.CountEntries().value(), 0u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
  ASSERT_TRUE(engine->Close().ok());
}

TEST(BTreeTest, InsertAndSearchEqualIntKeys) {
  TempDb db("int");
  auto engine = StorageEngine::Open(db.path()).value();
  PageId root = BTree::Create(engine.get()).value();
  BTree tree(engine.get(), root);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(tree.Insert(Value::Int(i * 3), Rid(1, i)).ok()) << i;
  }
  for (int i = 0; i < 100; ++i) {
    auto rids = tree.SearchEqual(Value::Int(i * 3)).value();
    ASSERT_EQ(rids.size(), 1u) << "key " << i * 3;
    EXPECT_EQ(rids[0], Rid(1, i));
  }
  EXPECT_TRUE(tree.SearchEqual(Value::Int(1)).value().empty());
  EXPECT_TRUE(tree.SearchEqual(Value::Int(-5)).value().empty());
  EXPECT_EQ(tree.CountEntries().value(), 100u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
  ASSERT_TRUE(engine->Close().ok());
}

TEST(BTreeTest, DuplicateKeysReturnAllRidsInRidOrder) {
  TempDb db("dups");
  auto engine = StorageEngine::Open(db.path()).value();
  PageId root = BTree::Create(engine.get()).value();
  BTree tree(engine.get(), root);
  // Insert rids out of order; SearchEqual must return them rid-sorted.
  ASSERT_TRUE(tree.Insert(Value::String("x"), Rid(9, 2)).ok());
  ASSERT_TRUE(tree.Insert(Value::String("x"), Rid(3, 7)).ok());
  ASSERT_TRUE(tree.Insert(Value::String("x"), Rid(3, 1)).ok());
  ASSERT_TRUE(tree.Insert(Value::String("w"), Rid(1, 1)).ok());
  ASSERT_TRUE(tree.Insert(Value::String("y"), Rid(2, 2)).ok());
  auto rids = tree.SearchEqual(Value::String("x")).value();
  ASSERT_EQ(rids.size(), 3u);
  EXPECT_EQ(rids[0], Rid(3, 1));
  EXPECT_EQ(rids[1], Rid(3, 7));
  EXPECT_EQ(rids[2], Rid(9, 2));
  // An exact (key, rid) duplicate is rejected.
  EXPECT_TRUE(tree.Insert(Value::String("x"), Rid(3, 7)).IsAlreadyExists());
  EXPECT_EQ(tree.CountEntries().value(), 5u);
  ASSERT_TRUE(engine->Close().ok());
}

TEST(BTreeTest, RejectsNullAndOversizeKeys) {
  TempDb db("badkeys");
  auto engine = StorageEngine::Open(db.path()).value();
  PageId root = BTree::Create(engine.get()).value();
  BTree tree(engine.get(), root);
  EXPECT_TRUE(tree.Insert(Value::Null(), Rid(1, 0)).IsInvalidArgument());
  EXPECT_TRUE(tree.Insert(Value::String(std::string(BTree::kMaxKeyBytes + 1,
                                                    'z')),
                          Rid(1, 0))
                  .IsInvalidArgument());
  EXPECT_EQ(tree.CountEntries().value(), 0u);
  ASSERT_TRUE(engine->Close().ok());
}

TEST(BTreeTest, RangeScanHonorsBoundInclusivity) {
  TempDb db("range");
  auto engine = StorageEngine::Open(db.path()).value();
  PageId root = BTree::Create(engine.get()).value();
  BTree tree(engine.get(), root);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(tree.Insert(Value::Int(i), Rid(1, i)).ok());
  }
  auto rids_of = [&](std::optional<BTree::Bound> lo,
                     std::optional<BTree::Bound> hi) {
    const std::vector<RecordId> rids = tree.Scan(lo, hi).value();
    std::vector<int> slots;
    for (const RecordId& r : rids) slots.push_back(r.slot);
    return slots;
  };
  using B = BTree::Bound;
  EXPECT_EQ(rids_of(B{Value::Int(3), true}, B{Value::Int(6), true}),
            (std::vector<int>{3, 4, 5, 6}));
  EXPECT_EQ(rids_of(B{Value::Int(3), false}, B{Value::Int(6), false}),
            (std::vector<int>{4, 5}));
  EXPECT_EQ(rids_of(std::nullopt, B{Value::Int(2), true}),
            (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(rids_of(B{Value::Int(7), false}, std::nullopt),
            (std::vector<int>{8, 9}));
  EXPECT_TRUE(rids_of(B{Value::Int(6), true}, B{Value::Int(3), true}).empty());
  // A NULL bound compares unknown against everything: empty result.
  EXPECT_TRUE(rids_of(B{Value::Null(), true}, std::nullopt).empty());
  ASSERT_TRUE(engine->Close().ok());
}

TEST(BTreeTest, DeepSplitsKeepOrderRootAndInvariants) {
  TempDb db("deep");
  auto engine = StorageEngine::Open(db.path()).value();
  PageId root = BTree::Create(engine.get()).value();
  BTree tree(engine.get(), root);
  // Shuffled insert order of wide keys forces splits at every level,
  // including repeated root splits — through all of which the root page id
  // must not move.
  std::vector<int> order(3000);
  for (int i = 0; i < 3000; ++i) order[i] = i;
  Random rng(42);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.Uniform(static_cast<uint32_t>(i))]);
  }
  for (int i : order) {
    ASSERT_TRUE(tree.Insert(Value::String(WideKey(i)), Rid(7, i % 1000)).ok())
        << i;
  }
  EXPECT_EQ(tree.root(), root);
  EXPECT_EQ(tree.CountEntries().value(), 3000u);
  ASSERT_TRUE(tree.CheckInvariants().ok());
  // Full scan returns every entry in key order.
  auto all = tree.Scan(std::nullopt, std::nullopt).value();
  ASSERT_EQ(all.size(), 3000u);
  for (int i = 0; i < 3000; ++i) {
    EXPECT_EQ(all[i].slot, static_cast<uint16_t>(i % 1000)) << i;
  }
  // Point lookups hit after all that splitting.
  for (int i = 0; i < 3000; i += 97) {
    auto rids = tree.SearchEqual(Value::String(WideKey(i))).value();
    ASSERT_EQ(rids.size(), 1u) << i;
  }
  ASSERT_TRUE(engine->Close().ok());
}

TEST(BTreeTest, DeleteIsExactAndLazy) {
  TempDb db("del");
  auto engine = StorageEngine::Open(db.path()).value();
  PageId root = BTree::Create(engine.get()).value();
  BTree tree(engine.get(), root);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(tree.Insert(Value::String(WideKey(i)), Rid(2, i % 100)).ok());
  }
  // Delete the even keys.
  for (int i = 0; i < 500; i += 2) {
    ASSERT_TRUE(tree.Delete(Value::String(WideKey(i)), Rid(2, i % 100)).ok())
        << i;
  }
  // Deleting again, or with the wrong rid, is NotFound.
  EXPECT_TRUE(tree.Delete(Value::String(WideKey(0)), Rid(2, 0)).IsNotFound());
  EXPECT_TRUE(
      tree.Delete(Value::String(WideKey(1)), Rid(99, 99)).IsNotFound());
  EXPECT_EQ(tree.CountEntries().value(), 250u);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(tree.SearchEqual(Value::String(WideKey(i))).value().size(),
              i % 2 == 0 ? 0u : 1u)
        << i;
  }
  ASSERT_TRUE(tree.CheckInvariants().ok());
  ASSERT_TRUE(engine->Close().ok());
}

TEST(BTreeTest, ClearEmptiesAndTreeRemainsUsable) {
  TempDb db("clear");
  auto engine = StorageEngine::Open(db.path()).value();
  PageId root = BTree::Create(engine.get()).value();
  BTree tree(engine.get(), root);
  for (int i = 0; i < 800; ++i) {
    ASSERT_TRUE(tree.Insert(Value::String(WideKey(i)), Rid(1, i % 100)).ok());
  }
  const uint64_t free_before = engine->CountFreePages().value();
  ASSERT_TRUE(tree.Clear().ok());
  // The freed interior/leaf pages land on the free list; the root survives.
  EXPECT_GT(engine->CountFreePages().value(), free_before);
  EXPECT_EQ(tree.root(), root);
  EXPECT_EQ(tree.CountEntries().value(), 0u);
  ASSERT_TRUE(tree.Insert(Value::String(WideKey(3)), Rid(4, 5)).ok());
  EXPECT_EQ(tree.CountEntries().value(), 1u);
  ASSERT_TRUE(tree.CheckInvariants().ok());
  ASSERT_TRUE(engine->Close().ok());
}

TEST(BTreeTest, EntriesSurviveReopen) {
  TempDb db("reopen");
  PageId root = kInvalidPageId;
  {
    auto engine = StorageEngine::Open(db.path()).value();
    root = BTree::Create(engine.get()).value();
    BTree tree(engine.get(), root);
    for (int i = 0; i < 1200; ++i) {
      ASSERT_TRUE(
          tree.Insert(Value::String(WideKey(i)), Rid(3, i % 100)).ok());
    }
    ASSERT_TRUE(engine->WalCommit().ok());
    ASSERT_TRUE(engine->Close().ok());
  }
  auto engine = StorageEngine::Open(db.path()).value();
  BTree tree(engine.get(), root);
  EXPECT_EQ(tree.CountEntries().value(), 1200u);
  for (int i = 0; i < 1200; i += 131) {
    EXPECT_EQ(tree.SearchEqual(Value::String(WideKey(i))).value().size(), 1u)
        << i;
  }
  ASSERT_TRUE(tree.CheckInvariants().ok());
  ASSERT_TRUE(engine->Close().ok());
}

TEST(BTreeTest, MaintenanceCountersAdvance) {
  TempDb db("counters");
  auto engine = StorageEngine::Open(db.path()).value();
  PageId root = BTree::Create(engine.get()).value();
  BTree tree(engine.get(), root);
  auto before = obs::MetricsRegistry::Global()->Snapshot("exec.index.");
  ASSERT_TRUE(tree.Insert(Value::Int(1), Rid(1, 0)).ok());
  ASSERT_TRUE(tree.Insert(Value::Int(2), Rid(1, 1)).ok());
  ASSERT_TRUE(tree.Delete(Value::Int(1), Rid(1, 0)).ok());
  auto delta = obs::SnapshotDelta(
      before, obs::MetricsRegistry::Global()->Snapshot("exec.index."));
  EXPECT_EQ(delta["exec.index.inserts"], 2u);
  EXPECT_EQ(delta["exec.index.deletes"], 1u);
  ASSERT_TRUE(engine->Close().ok());
}

TEST(BTreeTest, CrashPointNamesAreRegistered) {
  const auto& names = BTree::CrashPointNames();
  EXPECT_EQ(names.size(), 4u);
  for (const std::string& name : names) {
    EXPECT_EQ(name.rfind("index.", 0), 0u) << name;
  }
}

}  // namespace
}  // namespace jaguar
