#include "exec/operators.h"

#include <utility>

namespace jaguar {
namespace exec {

namespace {

bool CallsUdf(const BoundExpr& expr) {
  if (expr.kind == BoundExprKind::kCall) return true;
  if (expr.left != nullptr && CallsUdf(*expr.left)) return true;
  if (expr.right != nullptr && CallsUdf(*expr.right)) return true;
  return false;
}

}  // namespace

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
  const BoundExpr* predicate = spec_->predicate;
  const bool per_batch = predicate != nullptr && batched &&
                         spec_->batch_predicate;
  const bool per_record = predicate != nullptr && !per_batch;
  const size_t first = rows->size();
  size_t read = 0;
  bool end = false;
  // One batch of up to `max_rows` records at a time, until a batch has a
  // row that passes or the scan ends.
  while (rows->size() == first && !end) {
    for (size_t batch = 0; batch < max_rows; ++batch) {
      JAGUAR_ASSIGN_OR_RETURN(const TableHeap::Iterator::RecordView* rec,
                              cursor_.Advance());
      if (rec == nullptr) {
        end = true;
        break;
      }
      ++read;
      // A row that fails the predicate leaves `t` sized for the next one;
      // its columns outside the predicate's were never decoded and stay
      // NULL.
      Tuple& t = row_;
      if (predicate != nullptr) {
        JAGUAR_RETURN_IF_ERROR(Decode(*rec, spec_->predicate_columns, &t));
      }
      if (per_record) {
        sel_.assign(1, 0);
        JAGUAR_RETURN_IF_ERROR(
            eval_.Filter(*predicate, &t, batched, ctx_, &sel_));
        if (sel_.empty()) continue;
      }
      // The predicate's walk already checked the record and sized the
      // tuple.
      if (predicate == nullptr || !spec_->other_columns.empty()) {
        JAGUAR_RETURN_IF_ERROR(Decode(*rec, spec_->other_columns, &t));
      }
      rows->push_back(std::move(t));
      if (rids != nullptr) rids->push_back(rec->rid);
    }
    if (per_batch && rows->size() > first) {
      // The batch's rows, in full, through one evaluation of the predicate;
      // the rows that pass move up over those that fail.
      sel_.resize(rows->size() - first);
      for (size_t k = 0; k < sel_.size(); ++k) sel_[k] = k;
      JAGUAR_RETURN_IF_ERROR(eval_.Filter(*predicate, rows->data() + first,
                                          batched, ctx_, &sel_));
      for (size_t k = 0; k < sel_.size(); ++k) {
        std::swap((*rows)[first + k], (*rows)[first + sel_[k]]);
        if (rids != nullptr) (*rids)[first + k] = (*rids)[first + sel_[k]];
      }
      rows->resize(first + sel_.size());
      if (rids != nullptr) rids->resize(first + sel_.size());
    }
  }
  return read;
}

}  // namespace exec
}  // namespace jaguar
