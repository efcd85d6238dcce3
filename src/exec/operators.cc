#include "exec/operators.h"

#include <algorithm>
#include <cassert>
#include <iterator>

#include "obs/metrics.h"

namespace jaguar {
namespace exec {

namespace {

/// Per-operator produced-tuple counters; resolved once per operator kind.
obs::Counter* TuplesCounter(const char* op) {
  return obs::MetricsRegistry::Global()->GetCounter(
      std::string("exec.") + op + ".tuples");
}

bool CallsUdf(const BoundExpr& expr) {
  if (expr.kind == BoundExprKind::kCall) return true;
  if (expr.left != nullptr && CallsUdf(*expr.left)) return true;
  if (expr.right != nullptr && CallsUdf(*expr.right)) return true;
  return false;
}

}  // namespace

Status Operator::NextBatch(TupleBatch* out) {
  out->Clear();
  while (!out->full()) {
    JAGUAR_ASSIGN_OR_RETURN(auto t, Next());
    if (!t.has_value()) break;
    out->Add(std::move(*t));
  }
  return Status::OK();
}

void CollectColumns(const BoundExpr& expr, ColumnMask* mask) {
  if (expr.kind == BoundExprKind::kColumn) mask->Add(expr.column_index);
  if (expr.left != nullptr) CollectColumns(*expr.left, mask);
  if (expr.right != nullptr) CollectColumns(*expr.right, mask);
  for (const BoundExprPtr& arg : expr.args) CollectColumns(*arg, mask);
}

ScanSpec ScanSpec::Make(const BoundExpr* predicate, const ColumnMask& reads) {
  ScanSpec spec;
  spec.predicate = predicate;
  if (predicate != nullptr) {
    CollectColumns(*predicate, &spec.predicate_columns);
    spec.batch_predicate = CallsUdf(*predicate);
  }
  spec.other_columns = reads.Minus(spec.predicate_columns);
  return spec;
}

Status HeapScan::Decode(const TableHeap::Iterator::RecordView& rec,
                        const ColumnMask& mask, Tuple* t) {
  JAGUAR_ASSIGN_OR_RETURN(bool done,
                          Tuple::DecodeColumns(rec.bytes, mask, !rec.whole, t));
  if (done) return Status::OK();
  // A masked column lies past the first overflow chunk.
  JAGUAR_ASSIGN_OR_RETURN(Slice whole, cursor_.Whole());
  return Tuple::DecodeColumns(whole, mask, /*prefix=*/false, t).status();
}

Result<size_t> HeapScan::Read(size_t max_rows, bool batched,
                              std::vector<Tuple>* rows,
                              std::vector<RecordId>* rids) {
  assert(rids == nullptr || !batched);
  const BoundExpr* predicate = spec_->predicate;
  const bool per_batch = predicate != nullptr && batched &&
                         spec_->batch_predicate;
  const bool per_row = predicate != nullptr && !per_batch;
  const size_t first = rows->size();
  size_t read = 0;
  while (read < max_rows) {
    JAGUAR_ASSIGN_OR_RETURN(const TableHeap::Iterator::RecordView* rec,
                            cursor_.Advance());
    if (rec == nullptr) break;
    ++read;
    // A row that fails the predicate leaves `t` sized for the next one; its
    // columns outside the predicate's were never decoded and stay NULL.
    Tuple& t = row_;
    if (predicate != nullptr) {
      JAGUAR_RETURN_IF_ERROR(Decode(*rec, spec_->predicate_columns, &t));
    }
    if (per_row) {
      JAGUAR_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*predicate, t, ctx_));
      if (!pass) continue;
    }
    // The predicate's walk already checked the record and sized the tuple.
    if (predicate == nullptr || !spec_->other_columns.empty()) {
      JAGUAR_RETURN_IF_ERROR(Decode(*rec, spec_->other_columns, &t));
    }
    rows->push_back(std::move(t));
    if (rids != nullptr) rids->push_back(rec->rid);
  }
  if (per_batch && rows->size() > first) {
    std::vector<Tuple> group(std::make_move_iterator(rows->begin() + first),
                             std::make_move_iterator(rows->end()));
    rows->resize(first);
    JAGUAR_ASSIGN_OR_RETURN(std::vector<char> passes,
                            EvalPredicateBatch(*predicate, group, ctx_));
    for (size_t i = 0; i < group.size(); ++i) {
      if (passes[i]) rows->push_back(std::move(group[i]));
    }
  }
  return read;
}

Status HeapScan::ForEach(const QueryDeadline* deadline,
                         const std::function<Status(Tuple*, RecordId)>& fn) {
  std::vector<Tuple> rows;
  std::vector<RecordId> rids;
  while (true) {
    JAGUAR_RETURN_IF_ERROR(CheckDeadline(deadline));
    rows.clear();
    rids.clear();
    JAGUAR_ASSIGN_OR_RETURN(size_t read,
                            Read(1, /*batched=*/false, &rows, &rids));
    if (read == 0) return Status::OK();
    if (!rows.empty()) JAGUAR_RETURN_IF_ERROR(fn(&rows[0], rids[0]));
  }
}

void SeqScanOp::Count(size_t read, size_t passed) const {
  static obs::Counter* scanned = TuplesCounter("seqscan");
  static obs::Counter* filtered = TuplesCounter("filter");
  scanned->Add(read);
  if (spec_.predicate != nullptr) filtered->Add(passed);
}

Result<std::optional<Tuple>> SeqScanOp::Next() {
  while (true) {
    row_.clear();
    JAGUAR_ASSIGN_OR_RETURN(size_t read,
                            scan_.Read(1, /*batched=*/false, &row_));
    if (read == 0) return std::optional<Tuple>();
    Count(read, row_.size());
    if (!row_.empty()) return std::make_optional(std::move(row_[0]));
  }
}

Status SeqScanOp::NextBatch(TupleBatch* out) {
  out->Clear();
  // Read batches of records until one has a row that passes (or the heap
  // ends), so a non-empty result is only withheld at true end of stream.
  while (out->empty()) {
    JAGUAR_ASSIGN_OR_RETURN(
        size_t read,
        scan_.Read(out->capacity(), /*batched=*/true, &out->tuples()));
    if (read == 0) break;
    Count(read, out->size());
  }
  return Status::OK();
}

Result<std::optional<Tuple>> FilterOp::Next() {
  while (true) {
    JAGUAR_ASSIGN_OR_RETURN(auto t, child_->Next());
    if (!t.has_value()) return std::optional<Tuple>();
    JAGUAR_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*predicate_, *t, ctx_));
    if (pass) {
      static obs::Counter* tuples = TuplesCounter("filter");
      tuples->Add();
      return t;
    }
  }
}

Status FilterOp::NextBatch(TupleBatch* out) {
  out->Clear();
  static obs::Counter* tuples = TuplesCounter("filter");
  TupleBatch input(out->capacity());
  // Pull child batches until at least one tuple passes (or input ends), so a
  // non-empty result is only withheld at true end of stream.
  while (out->empty()) {
    JAGUAR_RETURN_IF_ERROR(child_->NextBatch(&input));
    if (input.empty()) break;
    JAGUAR_ASSIGN_OR_RETURN(std::vector<char> passes,
                            EvalPredicateBatch(*predicate_, input.tuples(),
                                               ctx_));
    for (size_t i = 0; i < input.size(); ++i) {
      if (!passes[i]) continue;
      tuples->Add();
      out->Add(std::move(input[i]));
    }
  }
  return Status::OK();
}

Result<std::optional<Tuple>> ProjectOp::Next() {
  JAGUAR_ASSIGN_OR_RETURN(auto t, child_->Next());
  if (!t.has_value()) return std::optional<Tuple>();
  std::vector<Value> out;
  out.reserve(exprs_.size());
  for (const BoundExprPtr& e : exprs_) {
    JAGUAR_ASSIGN_OR_RETURN(Value v, Eval(*e, *t, ctx_));
    out.push_back(std::move(v));
  }
  static obs::Counter* tuples = TuplesCounter("project");
  tuples->Add();
  return std::make_optional(Tuple(std::move(out)));
}

Status ProjectOp::NextBatch(TupleBatch* out) {
  out->Clear();
  TupleBatch input(out->capacity());
  JAGUAR_RETURN_IF_ERROR(child_->NextBatch(&input));
  if (input.empty()) return Status::OK();
  // One column of results per output expression, then transpose into rows.
  std::vector<std::vector<Value>> columns;
  columns.reserve(exprs_.size());
  for (const BoundExprPtr& e : exprs_) {
    JAGUAR_ASSIGN_OR_RETURN(std::vector<Value> column,
                            EvalBatch(*e, input.tuples(), ctx_));
    columns.push_back(std::move(column));
  }
  static obs::Counter* tuples = TuplesCounter("project");
  for (size_t row = 0; row < input.size(); ++row) {
    std::vector<Value> values;
    values.reserve(columns.size());
    for (std::vector<Value>& column : columns) {
      values.push_back(std::move(column[row]));
    }
    tuples->Add();
    out->Add(Tuple(std::move(values)));
  }
  return Status::OK();
}

Result<std::optional<Tuple>> LimitOp::Next() {
  if (remaining_ <= 0) return std::optional<Tuple>();
  JAGUAR_ASSIGN_OR_RETURN(auto t, child_->Next());
  if (t.has_value()) {
    --remaining_;
    static obs::Counter* tuples = TuplesCounter("limit");
    tuples->Add();
  }
  return t;
}

Status LimitOp::NextBatch(TupleBatch* out) {
  out->Clear();
  if (remaining_ <= 0) return Status::OK();
  // Pull at most `remaining_` tuples so upstream work past the limit is not
  // computed merely to be discarded.
  TupleBatch input(std::min<size_t>(out->capacity(),
                                    static_cast<size_t>(remaining_)));
  JAGUAR_RETURN_IF_ERROR(child_->NextBatch(&input));
  static obs::Counter* tuples = TuplesCounter("limit");
  for (size_t i = 0; i < input.size(); ++i) {
    if (remaining_ <= 0) break;
    --remaining_;
    tuples->Add();
    out->Add(std::move(input[i]));
  }
  return Status::OK();
}

}  // namespace exec
}  // namespace jaguar
