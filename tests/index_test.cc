// Unit tests for the page-based secondary B+-tree (src/index/btree.h):
// ordering, duplicate handling, splits across several levels, lazy deletes,
// range-scan bound semantics, WAL-backed persistence across reopen, the
// structural invariant checker the recovery matrix leans on, a model-based
// property test, the page format pinned byte for byte, and corrupt nodes.

#include "index/btree.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/random.h"
#include "obs/metrics.h"
#include "storage/buffer_pool.h"
#include "storage/page_edit.h"
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

// ---------------------------------------------------------------------------
// Raw node access, for the tests that pin, corrupt or hand-edit pages. It
// reads the layout btree.h documents, independently of btree.cc.
// ---------------------------------------------------------------------------

constexpr size_t kHeader = 8;

struct RawNode {
  bool leaf = true;
  uint16_t count = 0;
  PageId next = kInvalidPageId;
  std::vector<size_t> offsets;  // where each entry starts
  size_t end = kHeader;         // just past the last entry
  /// Internal nodes: `next`, then each entry's child.
  std::vector<PageId> children;
};

RawNode ReadRaw(StorageEngine* engine, PageId id) {
  PageGuard page = engine->buffer_pool()->FetchPage(id).value();
  const uint8_t* d = page.data();
  RawNode n;
  n.leaf = d[0] == 1;
  std::memcpy(&n.count, d + 2, 2);
  std::memcpy(&n.next, d + 4, 4);
  if (!n.leaf) n.children.push_back(n.next);
  size_t off = kHeader;
  for (uint16_t i = 0; i < n.count; ++i) {
    n.offsets.push_back(off);
    TypeId type;
    Slice payload;
    off += Value::Locate(Slice(d + off, kPageLsnOffset - off), &type, &payload)
               .value();
    off += 6;  // rid
    if (!n.leaf) {
      PageId child;
      std::memcpy(&child, d + off, 4);
      n.children.push_back(child);
      off += 4;
    }
  }
  n.end = off;
  return n;
}

/// The key of the entry at `offset` of page `id`.
Value KeyAt(StorageEngine* engine, PageId id, size_t offset) {
  PageGuard page = engine->buffer_pool()->FetchPage(id).value();
  BufferReader r(Slice(page.data() + offset, kPageLsnOffset - offset));
  return Value::ReadFrom(&r).value();
}

/// Overwrites `n` bytes at `offset` of page `id` as one logged edit.
void PokePage(StorageEngine* engine, PageId id, size_t offset,
              const void* bytes, size_t n) {
  PageGuard page = engine->buffer_pool()->FetchPage(id).value();
  WalPageEdit edit(engine->wal(), &page);
  std::memcpy(page.data() + offset, bytes, n);
  ASSERT_TRUE(edit.Commit().ok());
}

std::vector<uint8_t> PageBytes(StorageEngine* engine, PageId id) {
  PageGuard page = engine->buffer_pool()->FetchPage(id).value();
  return std::vector<uint8_t>(page.data(), page.data() + kPageLsnOffset);
}

/// Every page of the tree at `root`, parents before children.
void CollectTreePages(StorageEngine* engine, PageId root,
                      std::vector<PageId>* out) {
  out->push_back(root);
  for (PageId child : ReadRaw(engine, root).children) {
    CollectTreePages(engine, child, out);
  }
}

TEST(BTreeTest, CheckInvariantsCatchesAMisplacedSeparator) {
  TempDb db("fence");
  auto engine = StorageEngine::Open(db.path()).value();
  PageId root = BTree::Create(engine.get()).value();
  BTree tree(engine.get(), root);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(tree.Insert(Value::Int(i * 10), Rid(1, i % 100)).ok());
  }
  const RawNode top = ReadRaw(engine.get(), root);
  ASSERT_FALSE(top.leaf);
  ASSERT_GE(top.count, 2);
  const int64_t s1 = KeyAt(engine.get(), root, top.offsets[0]).AsInt();
  const int64_t s2 = KeyAt(engine.get(), root, top.offsets[1]).AsInt();
  ASSERT_GT(s2 - s1, 20);
  ASSERT_TRUE(tree.CheckInvariants().ok());
  ASSERT_EQ(tree.SearchEqual(Value::Int(s1)).value().size(), 1u);

  // Raise the first separator into the gap before the second: separators
  // and the leaf chain stay sorted, but the keys in [s1, raised) now sit
  // under a child whose lower fence is above them. An exact lookup of one
  // of them descends to the left sibling and misses.
  const int64_t raised = s1 + (s2 - s1) / 2;
  PokePage(engine.get(), root, top.offsets[0] + 1, &raised, sizeof(raised));
  EXPECT_TRUE(tree.Delete(Value::Int(s1), Rid(1, (s1 / 10) % 100))
                  .IsNotFound());
  EXPECT_TRUE(tree.CheckInvariants().IsCorruption());
  ASSERT_TRUE(engine->Close().ok());
}

TEST(BTreeTest, CheckInvariantsMatchesTheLeafChainToTheTree) {
  TempDb db("chain");
  auto engine = StorageEngine::Open(db.path()).value();
  PageId root = BTree::Create(engine.get()).value();
  BTree tree(engine.get(), root);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(tree.Insert(Value::Int(i), Rid(1, i % 100)).ok());
  }
  const RawNode top = ReadRaw(engine.get(), root);
  ASSERT_GE(top.children.size(), 3u);
  // Make the first leaf skip the second: every remaining link still points
  // rightwards in key order, but the chain no longer visits every leaf.
  const PageId first = top.children[0];
  const PageId third = top.children[2];
  PokePage(engine.get(), first, 4, &third, sizeof(third));
  EXPECT_TRUE(tree.CheckInvariants().IsCorruption());
  ASSERT_TRUE(engine->Close().ok());
}

TEST(BTreeTest, ProbesFetchEachPageOnTheirPathOnce) {
  TempDb db("fetches");
  auto engine = StorageEngine::Open(db.path()).value();
  PageId root = BTree::Create(engine.get()).value();
  BTree tree(engine.get(), root);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(tree.Insert(Value::Int(i), Rid(1, i % 100)).ok());
  }
  const RawNode top = ReadRaw(engine.get(), root);
  ASSERT_FALSE(top.leaf);
  for (PageId child : top.children) {
    ASSERT_TRUE(ReadRaw(engine.get(), child).leaf);  // two levels
  }
  BufferPool* pool = engine->buffer_pool();
  auto fetches = [pool] { return pool->hits() + pool->misses(); };

  // The root, then the leaf: the chain walk starts from the descent's view
  // of the start leaf instead of fetching it again.
  uint64_t before = fetches();
  EXPECT_EQ(tree.SearchEqual(Value::Int(1234)).value().size(), 1u);
  EXPECT_EQ(fetches() - before, 2u);

  // A full scan: the root, then every leaf once.
  before = fetches();
  EXPECT_EQ(tree.CountEntries().value(), 2000u);
  EXPECT_EQ(fetches() - before, 1 + top.children.size());
  ASSERT_TRUE(engine->Close().ok());
}

// ---------------------------------------------------------------------------
// Model-based property test: seeded, interleaved Insert / Delete /
// SearchEqual / Scan against a std::set of (key, rid).
// ---------------------------------------------------------------------------

struct ModelParam {
  const char* name;
  bool string_keys;
  size_t pool_pages;
};

// Without this gtest prints the param as its raw bytes, so the name pointer
// and the padding would put an address and stack garbage into the test
// names that ctest lists, and each build would name the tests differently.
void PrintTo(const ModelParam& param, std::ostream* os) {
  *os << '{' << (param.string_keys ? "STRING" : "INT") << ", "
      << param.pool_pages << '}';
}

class BTreeModelTest : public ::testing::TestWithParam<ModelParam> {};

/// Keys the model holds: int64_t for INT trees, std::string for STRING
/// trees. std::string orders bytes as unsigned, as Value::Compare does.
template <typename K>
Value KeyValue(const K& k);
template <>
Value KeyValue(const int64_t& k) {
  return Value::Int(k);
}
template <>
Value KeyValue(const std::string& k) {
  return Value::String(k);
}

using RidPair = std::pair<uint32_t, uint16_t>;

template <typename K>
class ModelRun {
 public:
  ModelRun(const ModelParam& param, const std::string& path, uint64_t seed)
      : param_(param), path_(path), rng_(seed) {
    engine_ = StorageEngine::Open(path_, param_.pool_pages).value();
    root_ = BTree::Create(engine_.get()).value();
  }

  ~ModelRun() {
    if (engine_) {
      EXPECT_TRUE(engine_->Close().ok());
    }
  }

  BTree tree() { return BTree(engine_.get(), root_); }

  void Reopen() {
    ASSERT_TRUE(engine_->WalCommit().ok());
    ASSERT_TRUE(engine_->Close().ok());
    engine_.reset();
    engine_ = StorageEngine::Open(path_, param_.pool_pages).value();
  }

  RidPair RandomRid() {
    return {static_cast<uint32_t>(1 + rng_.Uniform(40)),
            static_cast<uint16_t>(rng_.Uniform(64))};
  }

  void Insert(const K& key, RidPair rid) {
    const bool fresh = model_.count({key, rid}) == 0;
    const Status st = tree().Insert(KeyValue(key), Rid(rid.first, rid.second));
    if (fresh) {
      ASSERT_TRUE(st.ok()) << st.ToString();
      model_.insert({key, rid});
    } else {
      ASSERT_TRUE(st.IsAlreadyExists()) << st.ToString();
    }
  }

  void Delete(const K& key, RidPair rid) {
    const bool present = model_.count({key, rid}) != 0;
    const Status st = tree().Delete(KeyValue(key), Rid(rid.first, rid.second));
    if (present) {
      ASSERT_TRUE(st.ok()) << st.ToString();
      model_.erase({key, rid});
    } else {
      ASSERT_TRUE(st.IsNotFound()) << st.ToString();
    }
  }

  /// An entry the model holds, or a random (key, rid) if it is empty.
  std::pair<K, RidPair> SomeEntry(const std::function<K()>& gen) {
    if (model_.empty()) return {gen(), RandomRid()};
    auto it = model_.begin();
    std::advance(it, rng_.Uniform(model_.size()));
    return *it;
  }

  void CheckSearch(const K& key) {
    std::vector<RecordId> want;
    for (auto it = model_.lower_bound({key, RidPair{0, 0}});
         it != model_.end() && it->first == key; ++it) {
      want.push_back(Rid(it->second.first, it->second.second));
    }
    const std::vector<RecordId> got =
        tree().SearchEqual(KeyValue(key)).value();
    ASSERT_EQ(got, want);
  }

  void CheckScan(const std::optional<std::pair<K, bool>>& lo,
                 const std::optional<std::pair<K, bool>>& hi) {
    std::vector<RecordId> want;
    for (const auto& [key, rid] : model_) {
      if (lo && (key < lo->first || (key == lo->first && !lo->second))) {
        continue;
      }
      if (hi && (hi->first < key || (key == hi->first && !hi->second))) {
        break;
      }
      want.push_back(Rid(rid.first, rid.second));
    }
    std::optional<BTree::Bound> lower;
    std::optional<BTree::Bound> upper;
    if (lo) lower = BTree::Bound{KeyValue(lo->first), lo->second};
    if (hi) upper = BTree::Bound{KeyValue(hi->first), hi->second};
    const std::vector<RecordId> got = tree().Scan(lower, upper).value();
    ASSERT_EQ(got, want);
  }

  /// A random scan: each side open, inclusive or exclusive, on a key the
  /// model holds or a random one; inverted and empty ranges included.
  void RandomScan(const std::function<K()>& gen) {
    auto side = [&]() -> std::optional<std::pair<K, bool>> {
      const uint64_t pick = rng_.Uniform(5);
      if (pick == 0) return std::nullopt;
      const K key = pick <= 2 ? SomeEntry(gen).first : gen();
      return std::make_pair(key, rng_.Bernoulli(0.5));
    };
    const auto lo = side();
    auto hi = side();
    if (lo && rng_.Uniform(8) == 0) hi = std::make_pair(lo->first, false);
    CheckScan(lo, hi);
  }

  void CheckAll() {
    ASSERT_TRUE(tree().CheckInvariants().ok());
    CheckScan(std::nullopt, std::nullopt);
  }

  std::set<std::pair<K, RidPair>>& model() { return model_; }
  Random& rng() { return rng_; }

 private:
  ModelParam param_;
  std::string path_;
  Random rng_;
  std::unique_ptr<StorageEngine> engine_;
  PageId root_ = kInvalidPageId;
  std::set<std::pair<K, RidPair>> model_;
};

template <typename K>
void RunModel(const ModelParam& param, const std::string& path,
              const std::function<K(Random&)>& gen_key, const K& dup_key) {
  ModelRun<K> run(param, path, /*seed=*/param.string_keys ? 11 : 7);
  const std::function<K()> gen = [&] { return gen_key(run.rng()); };

  // Grow: random inserts, some of them exact duplicates.
  for (int i = 0; i < 3000; ++i) {
    if (i % 10 == 9) {
      const auto e = run.SomeEntry(gen);
      ASSERT_NO_FATAL_FAILURE(run.Insert(e.first, e.second));
    } else {
      ASSERT_NO_FATAL_FAILURE(run.Insert(gen(), run.RandomRid()));
    }
  }
  ASSERT_NO_FATAL_FAILURE(run.CheckAll());

  // One key duplicated across several leaves, inserted in random rid order.
  for (int i = 0; i < 1500; ++i) {
    ASSERT_NO_FATAL_FAILURE(run.Insert(
        dup_key, {static_cast<uint32_t>(100 + i % 37),
                  static_cast<uint16_t>((i * 7919) % 1500)}));
  }
  ASSERT_NO_FATAL_FAILURE(run.CheckSearch(dup_key));
  ASSERT_NO_FATAL_FAILURE(run.CheckScan(std::make_pair(dup_key, true),
                                        std::make_pair(dup_key, true)));
  ASSERT_NO_FATAL_FAILURE(run.CheckScan(std::make_pair(dup_key, false),
                                        std::nullopt));
  ASSERT_NO_FATAL_FAILURE(run.CheckScan(std::nullopt,
                                        std::make_pair(dup_key, false)));
  ASSERT_NO_FATAL_FAILURE(run.CheckAll());

  // Close and reopen mid-sequence: the tree answers from disk and the WAL.
  ASSERT_NO_FATAL_FAILURE(run.Reopen());
  ASSERT_NO_FATAL_FAILURE(run.CheckAll());

  // Empty whole leaves: delete a run of consecutive entries several leaves
  // long, in random order, then read across the gap.
  {
    std::vector<std::pair<K, RidPair>> window;
    auto it = run.model().begin();
    std::advance(it, run.model().size() / 4);
    for (int i = 0; i < 1800 && it != run.model().end(); ++i, ++it) {
      window.push_back(*it);
    }
    const K first = window.front().first;
    const K last = window.back().first;
    for (size_t i = window.size(); i > 1; --i) {
      std::swap(window[i - 1], window[run.rng().Uniform(i)]);
    }
    for (const auto& e : window) {
      ASSERT_NO_FATAL_FAILURE(run.Delete(e.first, e.second));
    }
    for (const auto& e : window) {
      if (run.rng().Uniform(20) == 0) {
        ASSERT_NO_FATAL_FAILURE(run.CheckSearch(e.first));
        ASSERT_NO_FATAL_FAILURE(run.Delete(e.first, e.second));  // NotFound
      }
    }
    ASSERT_NO_FATAL_FAILURE(run.CheckScan(std::make_pair(first, true),
                                          std::make_pair(last, true)));
  }
  ASSERT_NO_FATAL_FAILURE(run.CheckAll());

  // Interleave everything.
  for (int i = 0; i < 4000; ++i) {
    const uint64_t op = run.rng().Uniform(20);
    if (op < 8) {
      ASSERT_NO_FATAL_FAILURE(run.Insert(gen(), run.RandomRid()));
    } else if (op < 13) {
      const auto e = op < 12 ? run.SomeEntry(gen)
                             : std::make_pair(gen(), run.RandomRid());
      ASSERT_NO_FATAL_FAILURE(run.Delete(e.first, e.second));
    } else if (op < 17) {
      ASSERT_NO_FATAL_FAILURE(
          run.CheckSearch(op < 15 ? run.SomeEntry(gen).first : gen()));
    } else {
      ASSERT_NO_FATAL_FAILURE(run.RandomScan(gen));
    }
  }
  ASSERT_NO_FATAL_FAILURE(run.CheckAll());
  ASSERT_NO_FATAL_FAILURE(run.Reopen());
  ASSERT_NO_FATAL_FAILURE(run.CheckAll());
}

/// Short strings over an alphabet with bytes >= 0x80, so many keys are
/// prefixes of one another and a signed-char compare would misorder them;
/// one key in 50 is wide, so splits balance bytes, not counts.
std::string RandomStringKey(Random& rng) {
  static const char kAlphabet[] = {'a', 'b', '\x7f', '\x80', '\xff'};
  const size_t len = rng.Uniform(50) == 0 ? 150 + rng.Uniform(300)
                                          : rng.Uniform(9);
  std::string key;
  for (size_t i = 0; i < len; ++i) key += kAlphabet[rng.Uniform(5)];
  return key;
}

TEST_P(BTreeModelTest, AgreesWithASetModel) {
  const ModelParam& param = GetParam();
  TempDb db(std::string("model_") + param.name);
  if (param.string_keys) {
    RunModel<std::string>(param, db.path(), RandomStringKey,
                          std::string("\x80" "b"));
  } else {
    RunModel<int64_t>(
        param, db.path(),
        [](Random& rng) { return rng.UniformRange(-3000, 3000); },
        int64_t{17});
  }
}

// A pool of one frame fails any call that fetches a page while it holds a
// pin on another, so the one-page runs check that no call ever does.
INSTANTIATE_TEST_SUITE_P(
    KeysAndPools, BTreeModelTest,
    ::testing::Values(ModelParam{"int_default_pool", false, 256},
                      ModelParam{"int_one_page_pool", false, 1},
                      ModelParam{"string_default_pool", true, 256},
                      ModelParam{"string_one_page_pool", true, 1}),
    [](const ::testing::TestParamInfo<ModelParam>& info) {
      return std::string(info.param.name);
    });

// ---------------------------------------------------------------------------
// The page format, pinned: a seeded sequence must leave every index page
// and the WAL byte for byte as the decoded-node implementation left them.
// ---------------------------------------------------------------------------

// Recorded by running the test body below against the decoded-node
// implementation (ReadNode/WriteNode) that the in-place view replaced.
constexpr size_t kFormatPages = 132;
constexpr uint32_t kFormatCrc = 0xA77D3FA5;
// Re-recorded when page edits switched from one kPageWrite range (first to
// last changed byte; 67,794,145 bytes here) to one kPageRuns record of the
// changed runs. The pages, and so the two constants above, did not change.
constexpr uint64_t kFormatWalBytes = 23265267;

TEST(BTreeFormatTest, PagesAndWalBytesMatchTheRecordedFormat) {
  TempDb db("format");
  auto engine = StorageEngine::Open(db.path()).value();
  const uint64_t wal_before =
      obs::MetricsRegistry::Global()->Snapshot("wal.bytes")["wal.bytes"];
  const PageId int_root = BTree::Create(engine.get()).value();
  const PageId str_root = BTree::Create(engine.get()).value();
  BTree ints(engine.get(), int_root);
  BTree strs(engine.get(), str_root);
  Random rng(2024);
  // Shuffled INT keys (two levels) and wide STRING keys (three levels, so
  // the root splits at more than one level).
  std::vector<int> order(3000);
  for (int i = 0; i < 3000; ++i) order[i] = i;
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.Uniform(i)]);
  }
  for (int i : order) {
    ASSERT_TRUE(ints.Insert(Value::Int(i * 7 - 5000), Rid(2, i % 500)).ok());
    ASSERT_TRUE(ints.Insert(Value::Int(i % 97), Rid(3, i % 1000)).ok());
    ASSERT_TRUE(strs.Insert(Value::String(WideKey(i)), Rid(4, i % 300)).ok());
  }
  // Lazy deletes, then inserts into the thinned leaves.
  for (int i = 0; i < 3000; i += 3) {
    ASSERT_TRUE(ints.Delete(Value::Int(i * 7 - 5000), Rid(2, i % 500)).ok());
    ASSERT_TRUE(strs.Delete(Value::String(WideKey(i)), Rid(4, i % 300)).ok());
  }
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(ints.Insert(Value::Int(i * 11), Rid(5, i)).ok());
    ASSERT_TRUE(
        strs.Insert(Value::String(WideKey(i * 5) + "x"), Rid(5, i)).ok());
  }
  ASSERT_TRUE(ints.CheckInvariants().ok());
  ASSERT_TRUE(strs.CheckInvariants().ok());

  std::vector<PageId> pages;
  CollectTreePages(engine.get(), int_root, &pages);
  CollectTreePages(engine.get(), str_root, &pages);
  uint32_t crc = 0;
  for (PageId id : pages) {
    const std::vector<uint8_t> bytes = PageBytes(engine.get(), id);
    crc = Crc32(bytes.data(), bytes.size(), crc);
  }
  const uint64_t wal_bytes =
      obs::MetricsRegistry::Global()->Snapshot("wal.bytes")["wal.bytes"] -
      wal_before;
  EXPECT_EQ(pages.size(), kFormatPages);
  EXPECT_EQ(crc, kFormatCrc);
  EXPECT_EQ(wal_bytes, kFormatWalBytes);
  ASSERT_TRUE(engine->Close().ok());
}

// ---------------------------------------------------------------------------
// Corrupt nodes: every call that reads a defective page returns Corruption.
// ---------------------------------------------------------------------------

class BTreeCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = StorageEngine::Open(db_.path()).value();
    root_ = BTree::Create(engine_.get()).value();
    BTree tree(engine_.get(), root_);
    for (int i = 0; i < 400; ++i) {
      ASSERT_TRUE(tree.Insert(Value::String(Key(i)), Rid(1, i)).ok());
    }
    const RawNode top = ReadRaw(engine_.get(), root_);
    ASSERT_FALSE(top.leaf);
    ASSERT_GE(top.children.size(), 3u);
    leaf_ = top.children[1];
    const RawNode leaf = ReadRaw(engine_.get(), leaf_);
    ASSERT_TRUE(leaf.leaf);
    ASSERT_GE(leaf.count, 3);
    // The leaf's keys are Key(first_) .. Key(last_).
    first_ = std::stoi(
        KeyAt(engine_.get(), leaf_, leaf.offsets.front()).AsString().substr(3));
    last_ = std::stoi(
        KeyAt(engine_.get(), leaf_, leaf.offsets.back()).AsString().substr(3));
    ASSERT_EQ(last_ - first_ + 1, leaf.count);
    ASSERT_TRUE(tree.CheckInvariants().ok());
  }

  void TearDown() override { ASSERT_TRUE(engine_->Close().ok()); }

  /// Keys sort in insertion order and are wide enough that 400 of them make
  /// a root over several leaves.
  static std::string Key(int i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "key%05d", i);
    return std::string(buf) + std::string(40, 'p');
  }

  /// Applies one defect to page `id`, expects every call that reads the
  /// page to return Corruption, then restores the page. Calls that never
  /// read a leaf's sibling link skip `chain_only` defects.
  void ExpectCorruption(PageId id, const char* what,
                        const std::function<void()>& defect,
                        bool chain_only = false) {
    SCOPED_TRACE(std::string(what) + " in page " + std::to_string(id));
    const std::vector<uint8_t> before = PageBytes(engine_.get(), id);
    defect();
    BTree tree(engine_.get(), root_);
    // The leaf's last key reads past the leaf's end into its sibling.
    EXPECT_TRUE(tree.SearchEqual(Value::String(Key(last_))).status()
                    .IsCorruption());
    EXPECT_TRUE(tree.Scan(std::nullopt, std::nullopt).status().IsCorruption());
    if (!chain_only) {
      EXPECT_TRUE(tree.SearchEqual(Value::String(Key(first_))).status()
                      .IsCorruption());
      EXPECT_TRUE(tree.Insert(Value::String(Key(first_) + "+"), Rid(9, 9))
                      .IsCorruption());
      EXPECT_TRUE(tree.Delete(Value::String(Key(first_)), Rid(1, first_))
                      .IsCorruption());
    }
    EXPECT_TRUE(tree.CheckInvariants().IsCorruption());
    PokePage(engine_.get(), id, 0, before.data(), before.size());
    ASSERT_TRUE(tree.CheckInvariants().ok());
  }

  /// Every framing defect, written into page `id` one at a time.
  void ExpectFramingDefectsCaught(PageId id) {
    const RawNode node = ReadRaw(engine_.get(), id);
    ExpectCorruption(id, "bad kind byte", [&] {
      const uint8_t kind = 7;
      PokePage(engine_.get(), id, 0, &kind, 1);
    });
    ExpectCorruption(id, "unknown type tag in the last entry", [&] {
      const uint8_t tag = 0xEE;
      PokePage(engine_.get(), id, node.offsets.back(), &tag, 1);
    });
    ExpectCorruption(id, "count one past the entries", [&] {
      // The bytes past the last entry are leftovers of earlier edits; an
      // unknown tag there keeps them from framing as a stale entry.
      const std::vector<uint8_t> junk(kPageLsnOffset - node.end, 0xEE);
      PokePage(engine_.get(), id, node.end, junk.data(), junk.size());
      ASSERT_TRUE(BTree(engine_.get(), root_).CheckInvariants().ok());
      const uint16_t count = node.count + 1;
      PokePage(engine_.get(), id, 2, &count, 2);
    });
    ExpectCorruption(id, "string length past the node", [&] {
      const uint32_t len = kPageLsnOffset;
      PokePage(engine_.get(), id, node.offsets.back() + 1, &len, 4);
    });
  }

  TempDb db_{"corrupt"};
  std::unique_ptr<StorageEngine> engine_;
  PageId root_ = kInvalidPageId;
  PageId leaf_ = kInvalidPageId;
  int first_ = 0;
  int last_ = 0;
};

TEST_F(BTreeCorruptionTest, DefectiveLeafIsCorruption) {
  ExpectFramingDefectsCaught(leaf_);
  // Only the calls that follow the leaf chain read a sibling link.
  ExpectCorruption(
      leaf_, "leaf next pointing at an internal node",
      [&] { PokePage(engine_.get(), leaf_, 4, &root_, sizeof(root_)); },
      /*chain_only=*/true);
}

TEST_F(BTreeCorruptionTest, DefectiveRootIsCorruption) {
  ExpectFramingDefectsCaught(root_);
}

// Fixed-width keys (NULL, BOOL, INT, DOUBLE) are framed without
// `Value::Locate`: an entry with such a key whose rid runs one byte past
// the node is still Corruption.
TEST(BTreeFramingTest, FixedWidthEntryPastTheNodeIsCorruption) {
  TempDb db("framing");
  auto engine = StorageEngine::Open(db.path()).value();
  const PageId root = BTree::Create(engine.get()).value();
  BTree tree(engine.get(), root);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(tree.Insert(Value::Int(i), Rid(1, i)).ok());
  }
  const RawNode leaf = ReadRaw(engine.get(), root);
  ASSERT_TRUE(leaf.leaf);
  const std::vector<uint8_t> clean = PageBytes(engine.get(), root);
  for (TypeId type :
       {TypeId::kNull, TypeId::kBool, TypeId::kInt, TypeId::kDouble}) {
    SCOPED_TRACE(TypeIdToString(type));
    const size_t key_bytes = type == TypeId::kNull   ? 1
                             : type == TypeId::kBool ? 2
                                                     : 9;
    // Entries with NULL (7 bytes) and BOOL (8 bytes) keys fill the node up
    // to a last entry of `type` that has room for its key and 5 rid bytes.
    const size_t last = kPageLsnOffset - (key_bytes + 5);
    const size_t fill = last - leaf.end;
    const size_t bools = fill % 7;
    const size_t nulls = (fill - 8 * bools) / 7;
    std::vector<uint8_t> junk;
    for (size_t i = 0; i < nulls + bools; ++i) {
      junk.push_back(static_cast<uint8_t>(i < nulls ? TypeId::kNull
                                                    : TypeId::kBool));
      junk.resize(junk.size() + (i < nulls ? 6 : 7), 0);
    }
    ASSERT_EQ(junk.size(), fill);
    junk.push_back(static_cast<uint8_t>(type));
    junk.resize(kPageLsnOffset - leaf.end, 0);
    PokePage(engine.get(), root, leaf.end, junk.data(), junk.size());
    const uint16_t count =
        static_cast<uint16_t>(leaf.count + nulls + bools + 1);
    PokePage(engine.get(), root, 2, &count, 2);
    EXPECT_TRUE(tree.SearchEqual(Value::Int(3)).status().IsCorruption());
    EXPECT_TRUE(tree.Scan(std::nullopt, std::nullopt).status().IsCorruption());
    EXPECT_TRUE(tree.CheckInvariants().IsCorruption());
    PokePage(engine.get(), root, 0, clean.data(), clean.size());
    ASSERT_TRUE(tree.CheckInvariants().ok());
  }
  EXPECT_EQ(tree.SearchEqual(Value::Int(3)).value().size(), 1u);
  ASSERT_TRUE(engine->Close().ok());
}

}  // namespace
}  // namespace jaguar
