#include "index/btree.h"

#include <cstring>
#include <unordered_set>

#include "common/bytes.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "storage/buffer_pool.h"
#include "storage/page_edit.h"
#include "wal/crash_point.h"

namespace jaguar {

namespace {

constexpr uint8_t kLeafKind = 1;
constexpr uint8_t kInternalKind = 2;
constexpr size_t kNodeHeader = 8;  // kind u8, pad u8, count u16, next u32
/// Entries fill [kNodeHeader, kNodeEnd); the LSN footer follows.
constexpr size_t kNodeEnd = kPageLsnOffset;
constexpr size_t kRidBytes = 6;    // u32 page + u16 slot
constexpr size_t kChildBytes = 4;  // internal entries only
/// Height is logarithmic; a deeper descent means a cycle in the page graph.
constexpr int kMaxDepth = 64;

obs::Counter* InsertCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global()->GetCounter("exec.index.inserts");
  return c;
}

obs::Counter* DeleteCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global()->GetCounter("exec.index.deletes");
  return c;
}

uint16_t LoadU16(const uint8_t* p) {
  uint16_t v;
  std::memcpy(&v, p, 2);
  return v;
}

uint32_t LoadU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

void StoreU16(uint8_t* p, uint16_t v) { std::memcpy(p, &v, 2); }
void StoreU32(uint8_t* p, uint32_t v) { std::memcpy(p, &v, 4); }

int CompareRid(RecordId a, RecordId b) {
  if (a.page_id != b.page_id) return a.page_id < b.page_id ? -1 : 1;
  if (a.slot != b.slot) return a.slot < b.slot ? -1 : 1;
  return 0;
}

/// The smallest possible rid: the composite (key, kMinRid) sorts before
/// every real entry with that key, which is what scans descend with.
constexpr RecordId kMinRid{0, 0};

/// A key in its stream-protocol form: the type tag and the payload bytes,
/// read in place from a node or from an encoded probe key.
struct KeyRef {
  TypeId type = TypeId::kNull;
  Slice payload;
};

/// Encodes `key` into `w`, which must be empty and must not grow while the
/// returned reference is in use.
KeyRef EncodeKey(const Value& key, BufferWriter* w) {
  key.WriteTo(w);
  KeyRef ref;
  (void)Value::Locate(Slice(w->buffer()), &ref.type, &ref.payload);
  return ref;
}

/// Three-way comparison in `Value::Compare`'s order and with its errors.
/// INT against INT compares the 8 payload bytes as integers and STRING
/// against STRING compares bytes (unsigned, then length, as
/// `std::string::compare` does); any other pairing is materialized and
/// compared by `Value::Compare`.
Result<int> CompareKeys(const KeyRef& a, const KeyRef& b) {
  if (a.type == b.type && a.type == TypeId::kInt) {
    int64_t x, y;
    std::memcpy(&x, a.payload.data(), 8);
    std::memcpy(&y, b.payload.data(), 8);
    return (x > y) - (x < y);
  }
  if (a.type == b.type && a.type == TypeId::kString) {
    const int c = a.payload.Compare(b.payload);
    return (c > 0) - (c < 0);
  }
  return Value::FromPayload(a.type, a.payload)
      .Compare(Value::FromPayload(b.type, b.payload));
}

/// One entry of a node, read in place.
struct EntryRef {
  KeyRef key;
  RecordId rid;
  PageId child = kInvalidPageId;  // internal entries only
  size_t size = 0;                // key + rid (+ child) bytes
};

/// Composite (key, rid) comparison of an entry against (key, rid).
Result<int> CompareEntry(const EntryRef& e, const KeyRef& key, RecordId rid) {
  JAGUAR_ASSIGN_OR_RETURN(int cmp, CompareKeys(e.key, key));
  return cmp != 0 ? cmp : CompareRid(e.rid, rid);
}

/// Reads the entry at `offset` of node bytes `d`, whose framing has been
/// checked (NodeView::Open), so nothing here is checked again. The search
/// loops read every entry they pass through here: `Value::Locate` would
/// check each one again and return a Result per entry.
EntryRef ReadEntry(const uint8_t* d, size_t offset, bool leaf) {
  const uint8_t* p = d + offset;
  EntryRef e;
  e.key.type = static_cast<TypeId>(p[0]);
  size_t header = 1;
  size_t width = 0;
  switch (e.key.type) {
    case TypeId::kNull: break;
    case TypeId::kBool: width = 1; break;
    case TypeId::kInt:
    case TypeId::kDouble: width = 8; break;
    case TypeId::kString:
    case TypeId::kBytes:
      header = 5;
      width = LoadU32(p + 1);
      break;
  }
  e.key.payload = Slice(p + header, width);
  const uint8_t* r = p + header + width;
  e.rid.page_id = LoadU32(r);
  e.rid.slot = LoadU16(r + 4);
  if (!leaf) e.child = LoadU32(r + kRidBytes);
  e.size = header + width + kRidBytes + (leaf ? 0 : kChildBytes);
  return e;
}

/// Where (key, rid) falls among a node's entries.
struct Seek {
  /// The first entry above (key, rid), or the one equal to it when the
  /// search stops at an equal entry; the node's end when there is none.
  size_t offset = kNodeHeader;
  bool equal = false;
  /// Internal nodes: the child whose range covers (key, rid).
  PageId child = kInvalidPageId;
};

/// An index node read in place from its pinned page.
///
/// Open checks the node's framing once, as decoding it would: the kind byte,
/// and for all `count` entries a known type tag and a key, rid and child
/// that fit inside the node (`Value::Locate`'s checks and a bounded read's).
/// Fixed-width keys are framed inline; `Value::Locate` frames the rest and
/// rejects unknown tags. Reads after that go unchecked. The view holds the
/// page's pin; callers drop it before they fetch another page, so a tree
/// operation never holds two pins.
class NodeView {
 public:
  static Result<NodeView> Open(BufferPool* pool, PageId id) {
    JAGUAR_ASSIGN_OR_RETURN(PageGuard page, pool->FetchPage(id));
    const uint8_t* d = page.data();
    if (d[0] != kLeafKind && d[0] != kInternalKind) {
      return Corruption(
          StringPrintf("index page %u has bad kind byte %u", id, d[0]));
    }
    const size_t tail = kRidBytes + (d[0] == kLeafKind ? 0 : kChildBytes);
    const uint16_t count = LoadU16(d + 2);
    size_t end = kNodeHeader;
    for (uint16_t i = 0; i < count; ++i) {
      // Each fixed-width tag gets its own branch, so once the branch is
      // predicted the next entry's offset does not wait on the tag load (a
      // size table would make it wait). At room 0, d[end] is the LSN
      // footer's first byte, still inside the page.
      const size_t room = kNodeEnd - end;
      const TypeId tag = static_cast<TypeId>(d[end]);
      size_t key_size;  // tag byte + payload
      if (tag == TypeId::kInt || tag == TypeId::kDouble) {
        key_size = 1 + 8;
      } else if (tag == TypeId::kNull) {
        key_size = 1;
      } else if (tag == TypeId::kBool) {
        key_size = 1 + 1;
      } else {
        TypeId type;
        Slice payload;
        JAGUAR_ASSIGN_OR_RETURN(
            key_size, Value::Locate(Slice(d + end, room), &type, &payload));
      }
      if (key_size == 0 || room < key_size + tail) {
        return Corruption(StringPrintf(
            "index page %u: entry %u of %u runs past the node", id, i, count));
      }
      end += key_size + tail;
    }
    return NodeView(std::move(page), end);
  }

  PageId id() const { return page_.id(); }
  const uint8_t* data() const { return page_.data(); }
  bool leaf() const { return page_.data()[0] == kLeafKind; }
  uint16_t count() const { return LoadU16(page_.data() + 2); }
  /// Leaf: the right sibling; internal: the leftmost child.
  PageId next() const { return LoadU32(page_.data() + 4); }
  /// Entries run from kNodeHeader to here.
  size_t end() const { return end_; }
  EntryRef At(size_t offset) const {
    return ReadEntry(page_.data(), offset, leaf());
  }
  bool Fits(size_t entry_size) const { return end_ + entry_size <= kNodeEnd; }

  /// Walks the entries up to the first one above (key, rid) or, with
  /// `stop_at_equal`, the first one equal to it.
  Result<Seek> Find(const KeyRef& key, RecordId rid, bool stop_at_equal) const {
    Seek at;
    at.child = next();
    while (at.offset < end_) {
      const EntryRef e = At(at.offset);
      JAGUAR_ASSIGN_OR_RETURN(int cmp, CompareEntry(e, key, rid));
      if (cmp > 0) break;
      if (cmp == 0 && stop_at_equal) {
        at.equal = true;
        break;
      }
      at.child = e.child;
      at.offset += e.size;
    }
    return at;
  }

  /// Inserts the encoded `entry` at `offset`, shifting the entries after it,
  /// as one logged edit. The caller has checked that it Fits.
  Status Insert(wal::LogManager* wal, size_t offset, Slice entry) {
    WalPageEdit edit(wal, &page_);
    uint8_t* d = page_.data();
    std::memmove(d + offset + entry.size(), d + offset, end_ - offset);
    std::memcpy(d + offset, entry.data(), entry.size());
    StoreU16(d + 2, static_cast<uint16_t>(count() + 1));
    end_ += entry.size();
    return edit.Commit();
  }

  /// Removes the entry at `offset`, shifting the entries after it back, as
  /// one logged edit. The bytes past the new end keep what was there.
  Status Remove(wal::LogManager* wal, size_t offset) {
    const size_t size = At(offset).size;
    WalPageEdit edit(wal, &page_);
    uint8_t* d = page_.data();
    std::memmove(d + offset, d + offset + size, end_ - offset - size);
    StoreU16(d + 2, static_cast<uint16_t>(count() - 1));
    end_ -= size;
    return edit.Commit();
  }

  void Release() { page_.Release(); }

 private:
  NodeView(PageGuard page, size_t end) : page_(std::move(page)), end_(end) {}

  PageGuard page_;
  size_t end_;
};

/// Writes page `id` whole as a node: the header, then `entries` (holding
/// `count` encoded entries) from kNodeHeader on. Bytes past them keep what
/// was there.
Status FormatNode(StorageEngine* engine, PageId id, bool leaf, PageId next,
                  size_t count, Slice entries) {
  JAGUAR_ASSIGN_OR_RETURN(PageGuard page, engine->buffer_pool()->FetchPage(id));
  WalPageEdit edit(engine->wal(), &page);
  uint8_t* d = page.data();
  d[0] = leaf ? kLeafKind : kInternalKind;
  d[1] = 0;
  StoreU16(d + 2, static_cast<uint16_t>(count));
  StoreU32(d + 4, next);
  if (!entries.empty()) {
    std::memcpy(d + kNodeHeader, entries.data(), entries.size());
  }
  return edit.Commit();
}

/// Descends from `root` to the leaf whose range covers (key, rid), or to the
/// leftmost leaf when `key` is null, recording the internal pages visited
/// (root first) when `path` is non-null. Returns the leaf's view.
Result<NodeView> DescendToLeaf(BufferPool* pool, PageId root,
                               const KeyRef* key, RecordId rid,
                               std::vector<PageId>* path) {
  PageId pid = root;
  for (int depth = 0; depth < kMaxDepth; ++depth) {
    JAGUAR_ASSIGN_OR_RETURN(NodeView node, NodeView::Open(pool, pid));
    if (node.leaf()) return node;
    if (path != nullptr) path->push_back(pid);
    if (key == nullptr) {
      pid = node.next();
    } else {
      JAGUAR_ASSIGN_OR_RETURN(Seek at, node.Find(*key, rid, false));
      pid = at.child;
    }
  }
  return Corruption("index deeper than 64 levels (page cycle?)");
}

/// A node one entry too big for its page, copied out so a split can divide
/// it. `bytes` is laid out as the page is (header included), so entry
/// offsets match the page's.
struct Overfull {
  bool leaf = true;
  PageId next = kInvalidPageId;
  size_t count = 0;
  std::vector<uint8_t> bytes;
};

/// Copies `node` with `entry` inserted at `offset`, then drops the node's
/// pin.
Overfull CopyOut(NodeView* node, size_t offset, Slice entry) {
  Overfull out;
  out.leaf = node->leaf();
  out.next = node->next();
  out.count = node->count() + 1u;
  const uint8_t* d = node->data();
  out.bytes.reserve(node->end() + entry.size());
  out.bytes.assign(d, d + offset);
  out.bytes.insert(out.bytes.end(), entry.data(), entry.data() + entry.size());
  out.bytes.insert(out.bytes.end(), d + offset, d + node->end());
  node->Release();
  return out;
}

/// Splits `node` (page `pid`, reached through the internal pages `path`)
/// and inserts the separator into its parent, splitting upwards as far as
/// needed. Each page is written once: the new right half, then the left
/// half in place, then the parent.
Status SplitAndInsertUp(StorageEngine* engine, PageId root, PageId pid,
                        Overfull node, std::vector<PageId> path) {
  while (true) {
    // Split by bytes so wide string keys and narrow int keys both end up
    // with balanced halves. Both sides keep at least one entry.
    const uint8_t* d = node.bytes.data();
    const size_t total = node.bytes.size() - kNodeHeader;
    size_t split = 1;  // entries in the left half
    size_t mid = kNodeHeader + ReadEntry(d, kNodeHeader, node.leaf).size;
    while (split + 1 < node.count && mid - kNodeHeader < total / 2) {
      mid += ReadEntry(d, mid, node.leaf).size;
      ++split;
    }
    const Slice left(d + kNodeHeader, mid - kNodeHeader);
    const EntryRef median = ReadEntry(d, mid, node.leaf);

    // The separator for the parent, key | rid | child; the child is set
    // once the right half has a page.
    std::vector<uint8_t> sep(d + mid, d + mid + median.size);
    Slice right;
    size_t right_count;
    PageId right_next;
    if (node.leaf) {
      // Leaf split: the right node keeps every entry from `split` on and
      // the separator copies its first entry (entries stay in the leaf).
      sep.resize(sep.size() + kChildBytes);
      right = Slice(d + mid, node.bytes.size() - mid);
      right_count = node.count - split;
      right_next = node.next;
    } else {
      // Internal split: the median entry moves *up*; its child becomes the
      // right node's leftmost pointer.
      right = Slice(d + mid + median.size,
                    node.bytes.size() - mid - median.size);
      right_count = node.count - split - 1;
      right_next = median.child;
    }

    // Root split with a stable root id: both halves move into fresh pages
    // and the root is rewritten as an internal node over them.
    const bool at_root = pid == root && path.empty();
    PageId left_id = pid;
    if (at_root) {
      JAGUAR_ASSIGN_OR_RETURN(left_id, engine->AllocatePage());
    }
    JAGUAR_ASSIGN_OR_RETURN(PageId right_id, engine->AllocatePage());
    // A leaf's left half links to the right half; an internal node's keeps
    // its leftmost child.
    const PageId left_next = node.leaf ? right_id : node.next;
    JAGUAR_RETURN_IF_ERROR(FormatNode(engine, right_id, node.leaf, right_next,
                                      right_count, right));
    JAGUAR_CRASH_POINT("index.mid_split");
    JAGUAR_RETURN_IF_ERROR(
        FormatNode(engine, left_id, node.leaf, left_next, split, left));
    StoreU32(sep.data() + sep.size() - kChildBytes, right_id);
    if (at_root) {
      JAGUAR_RETURN_IF_ERROR(
          FormatNode(engine, root, /*leaf=*/false, left_id, 1, Slice(sep)));
      JAGUAR_CRASH_POINT("index.after_split");
      return Status::OK();
    }

    const PageId parent_id = path.back();
    path.pop_back();
    JAGUAR_ASSIGN_OR_RETURN(
        NodeView parent, NodeView::Open(engine->buffer_pool(), parent_id));
    const EntryRef up = ReadEntry(sep.data(), 0, /*leaf=*/false);
    JAGUAR_ASSIGN_OR_RETURN(Seek at, parent.Find(up.key, up.rid, false));
    if (parent.Fits(sep.size())) {
      JAGUAR_RETURN_IF_ERROR(parent.Insert(engine->wal(), at.offset, sep));
      JAGUAR_CRASH_POINT("index.after_split");
      return Status::OK();
    }
    node = CopyOut(&parent, at.offset, sep);
    pid = parent_id;
  }
}

/// Appends `id` and every page below it to `out`, parents before children.
Status CollectPages(BufferPool* pool, PageId id, int depth,
                    std::vector<PageId>* out) {
  if (depth >= kMaxDepth) return Corruption("index page graph cycle");
  out->push_back(id);
  std::vector<PageId> children;
  {
    JAGUAR_ASSIGN_OR_RETURN(NodeView node, NodeView::Open(pool, id));
    if (node.leaf()) return Status::OK();
    children.push_back(node.next());
    for (size_t off = kNodeHeader; off < node.end();) {
      const EntryRef e = node.At(off);
      children.push_back(e.child);
      off += e.size;
    }
  }
  for (PageId child : children) {
    JAGUAR_RETURN_IF_ERROR(CollectPages(pool, child, depth + 1, out));
  }
  return Status::OK();
}

/// Whether entry `a` sorts before entry `b`, or equals it when `or_equal`;
/// false when their keys do not compare.
bool Precedes(const EntryRef& a, const EntryRef& b, bool or_equal) {
  const Result<int> cmp = CompareEntry(a, b.key, b.rid);
  return cmp.ok() && (*cmp < 0 || (or_equal && *cmp == 0));
}

/// What CheckSubtree gathers across the whole tree.
struct TreeWalk {
  std::unordered_set<PageId> visited;
  int leaf_depth = -1;
  /// Leaves in left-to-right order, each with its chain link.
  std::vector<std::pair<PageId, PageId>> leaves;
};

/// Checks the subtree at `id`, whose entries must lie in [lo, hi) (a null
/// fence is open): every node's entries ascend strictly within its fences,
/// and every leaf sits at the same depth.
Status CheckSubtree(BufferPool* pool, PageId id, const EntryRef* lo,
                    const EntryRef* hi, int depth, TreeWalk* walk) {
  if (depth >= kMaxDepth) return Corruption("index deeper than 64 levels");
  if (!walk->visited.insert(id).second) {
    return Corruption(StringPrintf("index page %u is reached twice", id));
  }
  // Copy the node out, so its separators can fence the children while no
  // pin is held.
  bool leaf;
  PageId next;
  std::vector<uint8_t> bytes;
  {
    JAGUAR_ASSIGN_OR_RETURN(NodeView node, NodeView::Open(pool, id));
    leaf = node.leaf();
    next = node.next();
    bytes.assign(node.data(), node.data() + node.end());
  }
  std::vector<EntryRef> entries;
  for (size_t off = kNodeHeader; off < bytes.size();) {
    entries.push_back(ReadEntry(bytes.data(), off, leaf));
    off += entries.back().size;
  }
  for (size_t i = 0; i < entries.size(); ++i) {
    const bool in_order =
        i == 0 ? lo == nullptr || Precedes(*lo, entries[0], true)
               : Precedes(entries[i - 1], entries[i], false);
    const bool below_hi = i + 1 < entries.size() || hi == nullptr ||
                          Precedes(entries[i], *hi, false);
    if (!in_order || !below_hi) {
      return Corruption(StringPrintf(
          "index page %u: entry %zu out of order or outside its separators",
          id, i));
    }
  }
  if (leaf) {
    if (walk->leaf_depth < 0) walk->leaf_depth = depth;
    if (walk->leaf_depth != depth) {
      return Corruption(StringPrintf("index leaf %u at depth %d, not %d", id,
                                     depth, walk->leaf_depth));
    }
    walk->leaves.emplace_back(id, next);
    return Status::OK();
  }
  // Child 0 (`next`) holds the entries below the first separator; child i
  // those from separator i-1 up to separator i.
  const EntryRef* left = lo;
  PageId child = next;
  for (const EntryRef& e : entries) {
    JAGUAR_RETURN_IF_ERROR(CheckSubtree(pool, child, left, &e, depth + 1,
                                        walk));
    left = &e;
    child = e.child;
  }
  return CheckSubtree(pool, child, left, hi, depth + 1, walk);
}

}  // namespace

const std::vector<std::string>& BTree::CrashPointNames() {
  static const std::vector<std::string> kNames = {
      "index.before_leaf_write",
      "index.mid_split",
      "index.after_split",
      "index.before_delete_write",
  };
  return kNames;
}

Result<PageId> BTree::Create(StorageEngine* engine) {
  JAGUAR_ASSIGN_OR_RETURN(PageId id, engine->AllocatePage());
  JAGUAR_RETURN_IF_ERROR(FormatNode(engine, id, /*leaf=*/true, kInvalidPageId,
                                    0, Slice()));
  return id;
}

Status BTree::Insert(const Value& key, RecordId rid) {
  if (key.is_null()) {
    return InvalidArgument("NULL keys are not stored in indexes");
  }
  if (key.SerializedSize() > kMaxKeyBytes) {
    return InvalidArgument(StringPrintf(
        "index key of %zu bytes exceeds the %zu-byte limit",
        key.SerializedSize(), kMaxKeyBytes));
  }
  // The leaf entry, key | rid.
  BufferWriter entry;
  key.WriteTo(&entry);
  entry.PutU32(rid.page_id);
  entry.PutU16(rid.slot);
  const KeyRef k = ReadEntry(entry.buffer().data(), 0, /*leaf=*/true).key;

  std::vector<PageId> path;
  JAGUAR_ASSIGN_OR_RETURN(
      NodeView leaf,
      DescendToLeaf(engine_->buffer_pool(), root_, &k, rid, &path));
  JAGUAR_ASSIGN_OR_RETURN(Seek at, leaf.Find(k, rid, true));
  if (at.equal) return AlreadyExists("index entry already present");
  const Slice bytes(entry.buffer());
  if (leaf.Fits(bytes.size())) {
    JAGUAR_CRASH_POINT("index.before_leaf_write");
    JAGUAR_RETURN_IF_ERROR(leaf.Insert(engine_->wal(), at.offset, bytes));
  } else {
    const PageId leaf_id = leaf.id();
    JAGUAR_RETURN_IF_ERROR(SplitAndInsertUp(engine_, root_, leaf_id,
                                            CopyOut(&leaf, at.offset, bytes),
                                            std::move(path)));
  }
  InsertCounter()->Add();
  return Status::OK();
}

Status BTree::Delete(const Value& key, RecordId rid) {
  if (key.is_null()) {
    return InvalidArgument("NULL keys are not stored in indexes");
  }
  BufferWriter encoded;
  const KeyRef k = EncodeKey(key, &encoded);
  JAGUAR_ASSIGN_OR_RETURN(
      NodeView leaf,
      DescendToLeaf(engine_->buffer_pool(), root_, &k, rid, nullptr));
  JAGUAR_ASSIGN_OR_RETURN(Seek at, leaf.Find(k, rid, true));
  if (!at.equal) return NotFound("index entry not found");
  JAGUAR_CRASH_POINT("index.before_delete_write");
  JAGUAR_RETURN_IF_ERROR(leaf.Remove(engine_->wal(), at.offset));
  DeleteCounter()->Add();
  return Status::OK();
}

Result<std::vector<RecordId>> BTree::SearchEqual(const Value& key) {
  Bound b{key, true};
  return Scan(b, b);
}

Result<std::vector<RecordId>> BTree::Scan(const std::optional<Bound>& lower,
                                          const std::optional<Bound>& upper) {
  std::vector<RecordId> out;
  BufferPool* pool = engine_->buffer_pool();
  BufferWriter lower_bytes;
  BufferWriter upper_bytes;
  KeyRef lo;
  KeyRef hi;
  if (lower.has_value()) {
    if (lower->key.is_null()) return out;  // NULL bounds match nothing
    lo = EncodeKey(lower->key, &lower_bytes);
  }
  // The descent's view of the start leaf begins the walk below.
  JAGUAR_ASSIGN_OR_RETURN(
      NodeView leaf, DescendToLeaf(pool, root_,
                                   lower.has_value() ? &lo : nullptr, kMinRid,
                                   nullptr));
  if (upper.has_value()) {
    if (upper->key.is_null()) return out;
    hi = EncodeKey(upper->key, &upper_bytes);
  }

  // Walk the leaf chain from the start leaf, skipping entries below the
  // lower bound and stopping at the first entry above the upper bound. Each
  // leaf's pin is dropped before its sibling is fetched.
  for (int hops = 0;; ++hops) {
    for (size_t off = kNodeHeader; off < leaf.end();) {
      const EntryRef e = leaf.At(off);
      off += e.size;
      if (lower.has_value()) {
        JAGUAR_ASSIGN_OR_RETURN(int cmp, CompareKeys(e.key, lo));
        if (cmp < 0 || (cmp == 0 && !lower->inclusive)) continue;
      }
      if (upper.has_value()) {
        JAGUAR_ASSIGN_OR_RETURN(int cmp, CompareKeys(e.key, hi));
        if (cmp > 0 || (cmp == 0 && !upper->inclusive)) return out;
      }
      out.push_back(e.rid);
    }
    const PageId next = leaf.next();
    if (next == kInvalidPageId) return out;
    if (hops >= 1 << 24) return Corruption("leaf chain cycle");
    leaf.Release();
    JAGUAR_ASSIGN_OR_RETURN(leaf, NodeView::Open(pool, next));
    if (!leaf.leaf()) return Corruption("leaf chain reached an internal node");
  }
}

Status BTree::Clear() {
  std::vector<PageId> pages;
  JAGUAR_RETURN_IF_ERROR(
      CollectPages(engine_->buffer_pool(), root_, 0, &pages));
  for (PageId id : pages) {
    if (id == root_) continue;
    JAGUAR_RETURN_IF_ERROR(engine_->FreePage(id));
  }
  return FormatNode(engine_, root_, /*leaf=*/true, kInvalidPageId, 0,
                    Slice());
}

Status BTree::DropAll() {
  std::vector<PageId> pages;
  JAGUAR_RETURN_IF_ERROR(
      CollectPages(engine_->buffer_pool(), root_, 0, &pages));
  for (PageId id : pages) {
    JAGUAR_RETURN_IF_ERROR(engine_->FreePage(id));
  }
  return Status::OK();
}

Result<uint64_t> BTree::CountEntries() {
  JAGUAR_ASSIGN_OR_RETURN(std::vector<RecordId> all,
                          Scan(std::nullopt, std::nullopt));
  return static_cast<uint64_t>(all.size());
}

Status BTree::CheckInvariants() {
  TreeWalk walk;
  JAGUAR_RETURN_IF_ERROR(CheckSubtree(engine_->buffer_pool(), root_, nullptr,
                                      nullptr, 0, &walk));
  // The leaf chain, followed from the leftmost leaf, must visit exactly the
  // leaves the tree reaches, in the same order, and end there.
  for (size_t i = 0; i < walk.leaves.size(); ++i) {
    const PageId link = walk.leaves[i].second;
    const PageId want = i + 1 < walk.leaves.size() ? walk.leaves[i + 1].first
                                                   : kInvalidPageId;
    if (link != want) {
      return Corruption(StringPrintf(
          "leaf chain links index leaf %u to page %u, not %u",
          walk.leaves[i].first, link, want));
    }
  }
  return Status::OK();
}

}  // namespace jaguar
