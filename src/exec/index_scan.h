#ifndef JAGUAR_EXEC_INDEX_SCAN_H_
#define JAGUAR_EXEC_INDEX_SCAN_H_

/// \file index_scan.h
/// The access-path chooser and the index source shared by SELECT
/// (aggregates included), UPDATE and DELETE.
///
/// `PickIndexScan` looks at a bound WHERE clause's top-level AND chain for
/// conjuncts of the form `<column> <cmp> <constant>` (either side) where the
/// column has a B+-tree index and the constant's type matches the column's
/// exactly. A constant is a literal or a unary minus over a numeric literal,
/// folded the way the evaluator negates. It picks one column — the first
/// equality conjunct's in writing order, else the first range conjunct's —
/// and merges *every* comparison on that column into one `[lower, upper]`
/// range (`id >= 5 AND id >= 7 AND id < 9` probes [7, 9)). The merged
/// conjuncts are *removed* from the predicate — the index probe guarantees
/// them — and everything else stays behind as the residual filter,
/// evaluated only on the survivors. That is the paper-motivated win: an
/// expensive UDF predicate written before the indexable one no longer runs
/// on every tuple of the relation.
///
/// Correctness of removing the conjuncts relies on index semantics matching
/// predicate semantics: NULL keys are never stored (a NULL comparison is
/// unknown → WHERE-false), and bounds compare with `Value::Compare` exactly
/// like the evaluator.
///
/// Metrics (SELECT, aggregate, UPDATE and DELETE probes alike):
///   exec.index.scans        index probes executed
///   exec.index.range_scans  the subset driven by a range (non-equality)
///   exec.index.lookups      record ids produced by index probes
///   exec.index.inserts      entries inserted (maintenance + backfill)
///   exec.index.deletes      entries removed (maintenance)

#include <optional>
#include <string>
#include <vector>

#include "exec/expression.h"
#include "index/btree.h"
#include "storage/table_heap.h"

namespace jaguar {
namespace exec {

/// One indexable column the planner may use (engine-built from the catalog).
struct IndexCandidate {
  size_t column = 0;
  PageId root = kInvalidPageId;
  std::string name;
};

/// The planner's decision: which index, with which bounds.
struct IndexPick {
  PageId root = kInvalidPageId;
  std::string index_name;
  size_t column = 0;
  std::optional<BTree::Bound> lower;
  std::optional<BTree::Bound> upper;
  bool equality = false;
};

/// Examines `*where` (may be null). On a hit, returns the pick and replaces
/// `*where` with the residual predicate (null when the indexable conjuncts
/// were the whole clause); on a miss `*where` is unchanged.
std::optional<IndexPick> PickIndexScan(
    BoundExprPtr* where, const std::vector<IndexCandidate>& candidates,
    const Schema& schema);

/// Probes `pick`'s index: the record ids in its range, in (key, rid) order.
Result<std::vector<RecordId>> ProbeIndex(StorageEngine* engine,
                                         const IndexPick& pick);

/// Opens a plan's source over `heap`: its chain, or with `pick` the
/// index survivors, probed into `*rids` (the cursor reads that list, so it
/// must outlive the cursor). The survivors come in the probe's (key, rid)
/// order, or with `chain_order` in heap-chain order (`OrderByChain`) — the
/// order a heap scan would meet them, which keeps an aggregate's sums and
/// ties, and UPDATE and DELETE's heap layout, identical to the heap plan.
Result<TableHeap::Iterator> OpenSource(TableHeap* heap, const IndexPick* pick,
                                       bool chain_order,
                                       std::vector<RecordId>* rids);

}  // namespace exec
}  // namespace jaguar

#endif  // JAGUAR_EXEC_INDEX_SCAN_H_
