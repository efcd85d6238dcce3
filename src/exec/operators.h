#ifndef JAGUAR_EXEC_OPERATORS_H_
#define JAGUAR_EXEC_OPERATORS_H_

/// \file operators.h
/// Pull-based ("Volcano"-style) query operators. PREDATOR evaluates all
/// expressions — including UDFs — serially per tuple; so do we. The plans the
/// paper's experiments need are SeqScan (with the WHERE clause inside) →
/// Project → Limit.

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "exec/expression.h"
#include "exec/tuple_batch.h"
#include "storage/table_heap.h"
#include "types/schema.h"
#include "types/tuple.h"

namespace jaguar {
namespace exec {

class Operator {
 public:
  virtual ~Operator() = default;

  /// \return The next tuple, or nullopt at end of stream.
  virtual Result<std::optional<Tuple>> Next() = 0;

  /// Vectorized pull: clears `out` and fills it with up to `out->capacity()`
  /// tuples. An empty batch signals end of stream. The base implementation
  /// loops over `Next()`, so every operator supports the batch protocol;
  /// operators with a native batch path (scan/filter/project/limit) override
  /// it to evaluate expressions — and invoke UDFs — per batch instead of per
  /// tuple. Calls must not be interleaved with `Next()` on the same stream.
  virtual Status NextBatch(TupleBatch* out);

  /// Output schema of this operator.
  virtual const Schema& schema() const = 0;
};

using OperatorPtr = std::unique_ptr<Operator>;

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

/// The one heap-scan record loop, shared by the serial `SeqScanOp`, the
/// morsel workers, `IndexScanOp` and the engine's DELETE, UPDATE, index
/// builds and LOB store. It
/// reads records in place through the storage cursor, decodes the
/// predicate's columns, evaluates the predicate, and decodes the plan's
/// other columns only for the rows that pass. An overflow record is
/// reassembled only when a needed column lies past its first chunk.
class HeapScan {
 public:
  /// `spec` must outlive the scan; `ctx` serves UDFs in its predicate.
  HeapScan(TableHeap::Iterator cursor, const ScanSpec* spec, UdfContext* ctx)
      : cursor_(std::move(cursor)), spec_(spec), ctx_(ctx) {}

  /// Reads up to `max_rows` records and appends the rows that pass to
  /// `rows`. `batched`: the caller speaks the batch protocol, so a UDF
  /// predicate runs once over all the records this call reads. `rids`
  /// (only when not `batched`), when non-null, gets each row's record id.
  /// \return Records read; 0 at end of scan.
  Result<size_t> Read(size_t max_rows, bool batched, std::vector<Tuple>* rows,
                      std::vector<RecordId>* rids = nullptr);

  /// Reads the rest of the heap row at a time, calling `fn` on each row
  /// that passes with its record id. `deadline` (may be null) is checked
  /// before every record.
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

/// Full scan over a table heap with the WHERE clause inside: yields the
/// rows that pass, decoded for the plan.
class SeqScanOp : public Operator {
 public:
  /// The default `spec` decodes every column and keeps every row; `ctx`
  /// serves UDFs in its predicate.
  SeqScanOp(StorageEngine* engine, PageId first_page, Schema schema,
            ScanSpec spec = {}, UdfContext* ctx = nullptr)
      : heap_(engine, first_page),
        spec_(std::move(spec)),
        scan_(heap_.Scan(), &spec_, ctx),
        schema_(std::move(schema)) {}

  Result<std::optional<Tuple>> Next() override;
  Status NextBatch(TupleBatch* out) override;
  const Schema& schema() const override { return schema_; }

 private:
  /// Bumps the scan and filter tuple counters for `read` records of which
  /// `passed` passed.
  void Count(size_t read, size_t passed) const;

  TableHeap heap_;
  ScanSpec spec_;
  HeapScan scan_;
  Schema schema_;
  std::vector<Tuple> row_;  ///< Scratch for `Next`.
};

/// Emits only tuples for which the predicate evaluates to true — the
/// residual filter over an index scan (heap scans filter inside the scan).
class FilterOp : public Operator {
 public:
  FilterOp(OperatorPtr child, BoundExprPtr predicate, UdfContext* ctx)
      : child_(std::move(child)),
        predicate_(std::move(predicate)),
        ctx_(ctx) {}

  Result<std::optional<Tuple>> Next() override;
  Status NextBatch(TupleBatch* out) override;
  const Schema& schema() const override { return child_->schema(); }

 private:
  OperatorPtr child_;
  BoundExprPtr predicate_;
  UdfContext* ctx_;
};

/// Computes output expressions per input tuple.
class ProjectOp : public Operator {
 public:
  ProjectOp(OperatorPtr child, std::vector<BoundExprPtr> exprs,
            Schema out_schema, UdfContext* ctx)
      : child_(std::move(child)),
        exprs_(std::move(exprs)),
        schema_(std::move(out_schema)),
        ctx_(ctx) {}

  Result<std::optional<Tuple>> Next() override;
  Status NextBatch(TupleBatch* out) override;
  const Schema& schema() const override { return schema_; }

 private:
  OperatorPtr child_;
  std::vector<BoundExprPtr> exprs_;
  Schema schema_;
  UdfContext* ctx_;
};

/// Stops after `limit` tuples.
class LimitOp : public Operator {
 public:
  LimitOp(OperatorPtr child, int64_t limit)
      : child_(std::move(child)), remaining_(limit) {}

  Result<std::optional<Tuple>> Next() override;
  Status NextBatch(TupleBatch* out) override;
  const Schema& schema() const override { return child_->schema(); }

 private:
  OperatorPtr child_;
  int64_t remaining_;
};

}  // namespace exec
}  // namespace jaguar

#endif  // JAGUAR_EXEC_OPERATORS_H_
