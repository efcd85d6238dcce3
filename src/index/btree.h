#ifndef JAGUAR_INDEX_BTREE_H_
#define JAGUAR_INDEX_BTREE_H_

/// \file btree.h
/// A page-based secondary B+-tree keyed on one column value.
///
/// The tree maps (key Value, heap RecordId) pairs to the heap records they
/// index. Entries are ordered by the *composite* (key, rid) — duplicate keys
/// are allowed and deterministically ordered by rid, and every separator in
/// an internal node carries its rid so descent is exact even when one key
/// spans several leaves. NULL keys are never stored: SQL comparisons with
/// NULL are unknown, so an index scan that skips them agrees with a
/// predicate filter.
///
/// Page layout (all multi-byte fields little-endian, native memcpy):
///
///     [ u8 kind | u8 pad | u16 count | u32 next | entries... | lsn footer ]
///
/// * kind: 1 = leaf, 2 = internal.
/// * next: leaf — right-sibling page (kInvalidPageId at the end of the
///   chain); internal — the leftmost child.
/// * entries, serialized sequentially from offset 8:
///     leaf:     key (Value stream protocol) + rid (u32 page, u16 slot)
///     internal: key + rid + child (u32); `child` holds entries >= (key,rid).
/// * the final 8 bytes are the page's WAL LSN footer (page.h), never touched
///   here.
///
/// Nodes are read and edited in place on their pinned page, never decoded
/// into a separate form. Every read of a node first checks its framing: the
/// kind byte, and for all `count` entries a known type tag and a key, rid
/// and child that fit inside the node; a bad node is Corruption. An insert
/// that fits shifts the entries after it and writes one entry; a delete
/// shifts them back; a split copies the overfull node out and writes each
/// half whole. An operation holds at most one page pin at a time.
///
/// Durability: every page mutation goes through a committed `WalPageEdit`,
/// so index pages are logged and replayed exactly like heap pages. The root
/// page id is stable for the life of the index (a root split moves both
/// halves into freshly allocated children and rewrites the root as an
/// internal node in place), so the catalog records it once at CREATE INDEX.
///
/// Deletion is lazy: entries are removed from their leaf but nodes are never
/// merged or rebalanced, and empty leaves stay in the sibling chain. Scans
/// skip them; a rebuild (Clear + re-insert) compacts.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/page.h"
#include "storage/storage_engine.h"
#include "types/value.h"

namespace jaguar {

class BTree {
 public:
  /// Largest serialized key accepted (tag + payload bytes). Guarantees a
  /// node always holds several entries, bounding tree height.
  static constexpr size_t kMaxKeyBytes = 1024;

  /// One side of a range scan.
  struct Bound {
    Value key;
    bool inclusive = true;
  };

  /// Attaches to an existing tree rooted at `root`.
  BTree(StorageEngine* engine, PageId root) : engine_(engine), root_(root) {}

  /// Allocates and formats a new empty tree (a single leaf); returns its
  /// root page id, which never changes afterwards.
  static Result<PageId> Create(StorageEngine* engine);

  PageId root() const { return root_; }

  /// Inserts (key, rid). The key must be non-NULL and serialize to at most
  /// kMaxKeyBytes; an exact (key, rid) duplicate is AlreadyExists.
  Status Insert(const Value& key, RecordId rid);

  /// Removes the exact (key, rid) entry; NotFound if absent.
  Status Delete(const Value& key, RecordId rid);

  /// All rids with key == `key`, in rid order.
  Result<std::vector<RecordId>> SearchEqual(const Value& key);

  /// All rids with lower <= key <= upper (each bound optional and
  /// independently inclusive/exclusive), in (key, rid) order.
  Result<std::vector<RecordId>> Scan(const std::optional<Bound>& lower,
                                     const std::optional<Bound>& upper);

  /// Empties the tree: frees every page except the root, which is
  /// re-formatted as an empty leaf. Used by the post-crash index rebuild.
  Status Clear();

  /// Frees every page including the root. The BTree must not be used after.
  Status DropAll();

  /// Number of entries (full scan; test/debug use).
  Result<uint64_t> CountEntries();

  /// Verifies the whole tree: every node's entries ascend in composite
  /// order, every entry under child i lies within that child's separator
  /// bounds, all leaves sit at one depth, and the leaves reached from the
  /// root, left to right, are exactly the leaf chain. Test/debug use;
  /// errors are Corruption.
  Status CheckInvariants();

  /// Crash points compiled into the mutation paths, for the recovery test's
  /// index crash matrix (kept separate from wal::CrashPoints::AllNames(),
  /// whose matrix drives a heap-only workload).
  static const std::vector<std::string>& CrashPointNames();

 private:
  StorageEngine* engine_;
  PageId root_;
};

}  // namespace jaguar

#endif  // JAGUAR_INDEX_BTREE_H_
