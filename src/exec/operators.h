#ifndef JAGUAR_EXEC_OPERATORS_H_
#define JAGUAR_EXEC_OPERATORS_H_

/// \file operators.h
/// The record loop every plan reads through, and what it is told to read.
/// A plan is one pipeline (exec/parallel.h): a source (the heap chain, a
/// morsel of its pages, or an index probe's record ids) feeds `HeapScan`,
/// which evaluates the WHERE clause (or an index's residual) inside the
/// loop, and the rows that pass go to one sink. The `batched` flag of
/// `HeapScan::Read` and `EvalRows` is the paper's measured choice: a
/// tuple-at-a-time engine reads one record per pull and calls every UDF
/// once per row, as PREDATOR did; the vectorized engine reads a batch and
/// crosses each UDF's boundary once per batch.

#include <functional>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "exec/expression.h"
#include "storage/table_heap.h"
#include "types/schema.h"
#include "types/tuple.h"

namespace jaguar {
namespace exec {

/// Adds every column `expr` reads to `mask`.
void CollectColumns(const BoundExpr& expr, ColumnMask* mask);

/// What a heap scan decodes and keeps: the WHERE clause moved into the
/// scan, plus the column masks of a two-phase decode. Bound once per query;
/// morsel workers share it read-only.
struct ScanSpec {
  /// Predicate over the table schema; null keeps every row.
  const BoundExpr* predicate = nullptr;
  /// Columns the predicate reads: decoded first, for every row.
  ColumnMask predicate_columns;
  /// The plan's other columns: decoded only for rows that pass.
  ColumnMask other_columns = ColumnMask::All();
  /// The predicate calls a UDF. Under the batch protocol it then runs once
  /// per batch (one boundary crossing), after the batch is read, so its
  /// rows are decoded in full up front.
  bool batch_predicate = false;

  /// `reads` are the columns the plan reads above the scan (projection,
  /// sort key, group keys, aggregate arguments).
  static ScanSpec Make(const BoundExpr* predicate, const ColumnMask& reads);
};

/// The one record loop, shared by the pipeline (over heap chains, morsels
/// and index record lists alike), UPDATE and DELETE collection, the index
/// builds and the LOB store. It reads records in place through the storage
/// cursor, decodes the predicate's columns, evaluates the predicate, and
/// decodes the plan's other columns only for the rows that pass. An
/// overflow record is reassembled only when a needed column lies past its
/// first chunk.
class HeapScan {
 public:
  /// `spec` must outlive the scan; `ctx` serves UDFs in its predicate.
  HeapScan(TableHeap::Iterator cursor, const ScanSpec* spec, UdfContext* ctx)
      : cursor_(std::move(cursor)), spec_(spec), ctx_(ctx) {}

  /// Reads batches of up to `max_rows` records until one has a row that
  /// passes, and appends that batch's passing rows to `rows`; they are left
  /// empty only at the end of the scan. `batched`: the caller speaks the
  /// batch protocol, so a UDF predicate runs once over each batch. `rids`
  /// (only when not `batched`), when non-null, gets each row's record id.
  /// \return Records read, those of skipped batches included.
  Result<size_t> Read(size_t max_rows, bool batched, std::vector<Tuple>* rows,
                      std::vector<RecordId>* rids = nullptr);

  /// Reads the rest of the heap row at a time, calling `fn` on each row
  /// that passes with its record id. `deadline` (may be null) is checked
  /// before every read.
  Status ForEach(const QueryDeadline* deadline,
                 const std::function<Status(Tuple*, RecordId)>& fn);

 private:
  /// Decodes `mask` of the record at the cursor into `t`.
  Status Decode(const TableHeap::Iterator::RecordView& rec,
                const ColumnMask& mask, Tuple* t);

  TableHeap::Iterator cursor_;
  const ScanSpec* spec_;
  UdfContext* ctx_;
  Tuple row_;  ///< Decode target; moved out for each row that passes.
};

}  // namespace exec
}  // namespace jaguar

#endif  // JAGUAR_EXEC_OPERATORS_H_
