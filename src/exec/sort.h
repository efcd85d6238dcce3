#ifndef JAGUAR_EXEC_SORT_H_
#define JAGUAR_EXEC_SORT_H_

/// \file sort.h
/// ORDER BY: a `Sorter` — the pipeline's sorted-run sink — collects (key,
/// projected row) pairs (evaluated batch-at-a-time under the batch
/// protocol, so UDFs in either cross their design's boundary once per
/// batch) and orders them under a strict total order that reproduces the
/// engine's historical semantics exactly: ascending = (NULL-first key,
/// scan position), descending = the exact reverse. Because scan position
/// breaks every tie, the order is deterministic: a serial plan takes its
/// one run 0 as is, and a parallel plan that sorts morsel-local runs (run
/// id = morsel index, position = row within the morsel) and k-way-merges
/// them produces byte-identical output.
///
/// With LIMIT n the sorter switches to a bounded top-k heap: only the n
/// best entries are retained while consuming input, instead of
/// materialize-then-full-sort.
///
/// Metrics:
///   exec.sort.queries          ORDER BY queries executed
///   exec.sort.parallel_queries ORDER BY queries on the morsel-parallel path
///   exec.sort.rows             rows fed into sorters
///   exec.sort.topk_queries     queries served by the bounded top-k heap
///   exec.sort.runs_merged      morsel-local sorted runs k-way merged

#include <cstdint>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "exec/expression.h"
#include "types/schema.h"
#include "types/tuple.h"
#include "udf/udf.h"

namespace jaguar {
namespace exec {

/// Orders sort keys and entries; comparison failures (incomparable types)
/// are captured in `status()` instead of thrown through the sort.
class EntryOrder;

class Sorter {
 public:
  struct Entry {
    Value key;
    uint64_t run = 0;  ///< Morsel index on the parallel path, 0 serially.
    uint64_t pos = 0;  ///< Row position within the run, in scan order.
    Tuple row;
  };

  /// `limit` < 0 = unbounded full sort; >= 0 = bounded top-k heap keeping
  /// only the `limit` entries that come first in output order.
  Sorter(bool descending, int64_t limit, uint64_t run_id = 0);
  ~Sorter();

  Sorter(Sorter&&);
  Sorter& operator=(Sorter&&);

  /// Feeds one (key, projected row) pair, in scan order.
  void Add(Value key, Tuple row);

  /// Orders the retained entries; returns the first comparison error, if
  /// any key pair was incomparable.
  Status Finish();

  /// After Finish: entries in output order (for run merging).
  std::vector<Entry> TakeEntries();

  /// After Finish: projected rows in output order.
  std::vector<Tuple> TakeRows();

  bool bounded() const { return limit_ >= 0; }

  /// K-way-merges per-morsel sorted runs (each already in output order,
  /// with run ids in morsel order) into at most `limit` rows (< 0 = all).
  /// Byte-identical to sorting the concatenated input serially.
  static Result<std::vector<Tuple>> MergeRuns(
      std::vector<std::vector<Entry>> runs, bool descending, int64_t limit,
      const QueryDeadline* deadline);

 private:
  int64_t limit_;
  uint64_t run_;
  uint64_t next_pos_ = 0;
  std::unique_ptr<EntryOrder> order_;
  std::vector<Entry> entries_;  ///< Heap-ordered while bounded.
};

/// Sorts already-materialized rows by `key` bound against their schema —
/// the ORDER-BY-over-aggregate-output path. `limit` >= 0 truncates (top-k).
/// The key is evaluated by `Evaluator::EvalRows` over all rows as one
/// batch.
Result<std::vector<Tuple>> SortRows(std::vector<Tuple> rows,
                                    const BoundExpr& key, bool descending,
                                    int64_t limit, UdfContext* ctx,
                                    bool batched,
                                    const QueryDeadline* deadline);

}  // namespace exec
}  // namespace jaguar

#endif  // JAGUAR_EXEC_SORT_H_
