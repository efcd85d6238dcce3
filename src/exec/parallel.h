#ifndef JAGUAR_EXEC_PARALLEL_H_
#define JAGUAR_EXEC_PARALLEL_H_

/// \file parallel.h
/// The one physical plan of every SELECT: a pipeline, and the code that
/// runs it serially or on morsels.
///
///   source → HeapScan (WHERE or index residual inside) → sink → combine
///
/// The source is a heap's chain, morsels of its page list, or an index
/// probe's record ids (exec/index_scan.h `OpenSource`). Rows that pass the
/// record loop (exec/operators.h) go to one sink per stream:
///   - collect: the projection, stopping at LIMIT;
///   - partial aggregate: a `HashAggregator` (exec/aggregate.h);
///   - sorted run: a `Sorter` (exec/sort.h), a bounded top-k under LIMIT.
/// The streams' results combine in stream order: concatenation cut at
/// LIMIT, a merge of the partial aggregators, or a k-way merge of the runs.
///
/// A serial plan is exactly one stream over the whole source: its rows are
/// the collected rows, its one aggregator is finalized with no merge and
/// its run 0 is taken as is, so sums, MIN/MAX ties and the exec.agg.* and
/// exec.sort.* counts are those of a single pass. Only the serial stream
/// bumps `exec.<op>.tuples`: every record a heap scan reads as
/// `exec.seqscan.tuples`, every row passing a WHERE clause or residual as
/// `exec.filter.tuples`, and every collected row as `exec.project.tuples`
/// (and `exec.limit.tuples` under LIMIT).
///
/// A plan runs parallel under the batch protocol, with `num_workers` > 1,
/// over a heap source; an index source is always one stream. The page
/// list (read from the heap directory) is split into morsels of
/// `kMorselPages` consecutive pages; workers pull morsel indices from a
/// shared atomic dispenser and run each morsel as a stream of its own
/// (run id = morsel index). Combining in morsel index order makes every
/// plan shape deterministic and byte-identical to serial execution (see
/// aggregate.h for inexact double sums). Under LIMIT the collect sink stops
/// once it has `limit` rows, and no morsel is handed out once the completed
/// morsel prefix holds them. A plan with one morsel, or with room in the
/// buffer pool for one worker's pins, runs on the calling thread.
///
/// Shared state touched by workers (buffer pool, UDF runners and memo,
/// metrics, the JagVM) is thread-safe; each worker gets its own heap
/// cursor and a copy of the plan's UdfContext (the callback quota applies
/// per worker).
///
/// Metrics:
///   exec.parallel.queries   plans run on morsels (scan, aggregate, sort)
///   exec.parallel.workers   worker threads launched (sums over queries)
///   exec.parallel.morsels   morsels a parallel plan splits its pages into
///   exec.parallel.tuples    rows a parallel collect sink returns

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "exec/aggregate.h"
#include "exec/expression.h"
#include "exec/index_scan.h"
#include "exec/operators.h"
#include "exec/sort.h"
#include "storage/storage_engine.h"
#include "types/tuple.h"
#include "udf/udf.h"

namespace jaguar {
namespace exec {

/// Heap pages per morsel: small enough to balance skewed filters, large
/// enough that the dispenser is not contended.
inline constexpr size_t kMorselPages = 4;

/// One SELECT's plan, bound once; morsel workers share it read-only.
struct Pipeline {
  StorageEngine* engine = nullptr;
  PageId first_page = kInvalidPageId;
  /// An index source: the probe's survivors instead of the heap chain, in
  /// (key, rid) order — or, for an aggregate, in heap-chain order, as the
  /// heap plan meets them, so its sums and ties match that plan's exactly.
  const IndexPick* pick = nullptr;
  /// WHERE clause (or index residual) and column masks of the record loop.
  const ScanSpec* scan = nullptr;
  /// The batch protocol: each read takes `batch_size` records and each UDF
  /// crosses its boundary once per batch. Otherwise a read takes one
  /// record and each UDF is called once per row.
  bool batched = false;
  size_t batch_size = 256;
  /// Worker threads a parallel plan may run (see the file comment).
  size_t num_workers = 1;
  /// The sink: a partial aggregate with `aggregate`, else a sorted run with
  /// `order_key`, else collect. `out_exprs` is the projection of the
  /// collect and sorted-run sinks.
  const AggregatePlan* aggregate = nullptr;
  const BoundExpr* order_key = nullptr;
  bool descending = false;
  const std::vector<BoundExprPtr>* out_exprs = nullptr;
  /// LIMIT (< 0 = none) of the collect and sorted-run sinks.
  int64_t limit = -1;
  /// Serves UDF callbacks and carries the deadline, checked before every
  /// read; morsel workers each run a copy. Must not be null.
  UdfContext* ctx = nullptr;
};

/// Runs `plan`. Rows come in scan order (collect; an index source's order
/// for index plans), group-key byte order (aggregate) or sort order. The
/// first error, a worker's included, cancels the plan and is returned.
Result<std::vector<Tuple>> RunPipeline(const Pipeline& plan);

}  // namespace exec
}  // namespace jaguar

#endif  // JAGUAR_EXEC_PARALLEL_H_
