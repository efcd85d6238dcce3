#include "exec/index_scan.h"

#include <utility>

#include "obs/metrics.h"

namespace jaguar {
namespace exec {

namespace {

obs::Counter* ScansCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global()->GetCounter("exec.index.scans");
  return c;
}

obs::Counter* RangeScansCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global()->GetCounter("exec.index.range_scans");
  return c;
}

obs::Counter* LookupsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global()->GetCounter("exec.index.lookups");
  return c;
}

void FlattenAnd(BoundExprPtr e, std::vector<BoundExprPtr>* out) {
  if (e->kind == BoundExprKind::kBinary &&
      e->binary_op == sql::BinaryOp::kAnd) {
    FlattenAnd(std::move(e->left), out);
    FlattenAnd(std::move(e->right), out);
  } else {
    out->push_back(std::move(e));
  }
}

/// Refolds conjuncts left-associatively, matching the parser's AND shape.
/// AND is associative under three-valued logic, so any refold of the same
/// ordered conjuncts evaluates identically.
BoundExprPtr FoldAnd(std::vector<BoundExprPtr> conjuncts) {
  BoundExprPtr acc;
  for (BoundExprPtr& c : conjuncts) {
    if (acc == nullptr) {
      acc = std::move(c);
      continue;
    }
    auto node = std::make_unique<BoundExpr>();
    node->kind = BoundExprKind::kBinary;
    node->binary_op = sql::BinaryOp::kAnd;
    node->result_type = TypeId::kBool;
    node->left = std::move(acc);
    node->right = std::move(c);
    acc = std::move(node);
  }
  return acc;
}

sql::BinaryOp MirrorCmp(sql::BinaryOp op) {
  switch (op) {
    case sql::BinaryOp::kLt: return sql::BinaryOp::kGt;
    case sql::BinaryOp::kLe: return sql::BinaryOp::kGe;
    case sql::BinaryOp::kGt: return sql::BinaryOp::kLt;
    case sql::BinaryOp::kGe: return sql::BinaryOp::kLe;
    default: return op;
  }
}

struct ConjunctMatch {
  size_t column = 0;
  sql::BinaryOp op = sql::BinaryOp::kEq;
  Value literal;
};

/// The value of a literal, or of a unary minus over a numeric literal — the
/// parser's shape for `-1` — folded by the evaluator itself.
std::optional<Value> ConstantOf(const BoundExpr& e) {
  if (e.kind == BoundExprKind::kLiteral) return e.literal;
  if (e.kind == BoundExprKind::kUnary && e.unary_op == sql::UnaryOp::kNeg &&
      e.left->kind == BoundExprKind::kLiteral) {
    const Tuple none;
    std::vector<Value> v;
    Status s = Evaluator().EvalRows({&e}, &none, 1, false, nullptr, &v);
    if (s.ok()) return std::move(v[0]);
  }
  return std::nullopt;
}

std::optional<ConjunctMatch> MatchConjunct(const BoundExpr& e) {
  if (e.kind != BoundExprKind::kBinary) return std::nullopt;
  switch (e.binary_op) {
    case sql::BinaryOp::kEq:
    case sql::BinaryOp::kLt:
    case sql::BinaryOp::kLe:
    case sql::BinaryOp::kGt:
    case sql::BinaryOp::kGe:
      break;
    default:
      return std::nullopt;
  }
  const BoundExpr* col = e.left.get();
  std::optional<Value> lit = ConstantOf(*e.right);
  bool flipped = false;
  if (col->kind != BoundExprKind::kColumn || !lit.has_value()) {
    col = e.right.get();
    lit = ConstantOf(*e.left);
    flipped = true;
  }
  if (col->kind != BoundExprKind::kColumn || !lit.has_value() ||
      lit->is_null()) {
    return std::nullopt;
  }
  ConjunctMatch m;
  m.column = col->column_index;
  m.op = flipped ? MirrorCmp(e.binary_op) : e.binary_op;
  m.literal = std::move(*lit);
  return m;
}

/// Narrows `*bound` by (`key`, `inclusive`): a lower bound to the larger
/// key, an upper bound to the smaller; on equal keys the exclusive bound
/// wins. False when the keys do not compare (the caller keeps that conjunct
/// as residual).
bool Narrow(std::optional<BTree::Bound>* bound, const Value& key,
            bool inclusive, bool lower) {
  if (!bound->has_value()) {
    *bound = BTree::Bound{key, inclusive};
    return true;
  }
  Result<int> cmp = key.Compare((*bound)->key);
  if (!cmp.ok()) return false;
  if (lower ? *cmp > 0 : *cmp < 0) {
    *bound = BTree::Bound{key, inclusive};
  } else if (*cmp == 0 && !inclusive) {
    (*bound)->inclusive = false;
  }
  return true;
}

/// Merges conjunct `m` into `pick`'s range.
bool MergeInto(IndexPick* pick, const ConjunctMatch& m) {
  switch (m.op) {
    case sql::BinaryOp::kEq:
      pick->equality = true;
      return Narrow(&pick->lower, m.literal, true, true) &&
             Narrow(&pick->upper, m.literal, true, false);
    case sql::BinaryOp::kLt:
      return Narrow(&pick->upper, m.literal, false, false);
    case sql::BinaryOp::kLe:
      return Narrow(&pick->upper, m.literal, true, false);
    case sql::BinaryOp::kGt:
      return Narrow(&pick->lower, m.literal, false, true);
    case sql::BinaryOp::kGe:
      return Narrow(&pick->lower, m.literal, true, true);
    default:
      return false;
  }
}

}  // namespace

std::optional<IndexPick> PickIndexScan(
    BoundExprPtr* where, const std::vector<IndexCandidate>& candidates,
    const Schema& schema) {
  if (where == nullptr || *where == nullptr || candidates.empty()) {
    return std::nullopt;
  }
  std::vector<BoundExprPtr> conjuncts;
  FlattenAnd(std::move(*where), &conjuncts);

  // The conjuncts an index can serve. The constant must match the column's
  // declared type exactly: the index compares stored keys, and cross-type
  // comparisons (INT column, DOUBLE literal) have coercion semantics the
  // tree does not model.
  std::vector<std::optional<ConjunctMatch>> matches(conjuncts.size());
  std::vector<const IndexCandidate*> indexes(conjuncts.size(), nullptr);
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    std::optional<ConjunctMatch> m = MatchConjunct(*conjuncts[i]);
    if (!m.has_value() || m->column >= schema.num_columns() ||
        m->literal.type() != schema.column(m->column).type) {
      continue;
    }
    for (const IndexCandidate& cand : candidates) {
      if (cand.column == m->column) {
        matches[i] = std::move(m);
        indexes[i] = &cand;
        break;
      }
    }
  }

  // Equality conjuncts beat range conjuncts; writing order breaks ties.
  const IndexCandidate* chosen = nullptr;
  for (int want_equality = 1; want_equality >= 0 && chosen == nullptr;
       --want_equality) {
    for (size_t i = 0; i < conjuncts.size() && chosen == nullptr; ++i) {
      if (matches[i].has_value() &&
          (matches[i]->op == sql::BinaryOp::kEq) == (want_equality == 1)) {
        chosen = indexes[i];
      }
    }
  }
  if (chosen == nullptr) {
    *where = FoldAnd(std::move(conjuncts));  // restore, order preserved
    return std::nullopt;
  }

  // Every comparison on the chosen column narrows the one range probed.
  IndexPick pick;
  pick.root = chosen->root;
  pick.index_name = chosen->name;
  pick.column = chosen->column;
  std::vector<BoundExprPtr> residual;
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    if (indexes[i] != chosen || !MergeInto(&pick, *matches[i])) {
      residual.push_back(std::move(conjuncts[i]));
    }
  }
  *where = FoldAnd(std::move(residual));
  return pick;
}

Result<std::vector<RecordId>> ProbeIndex(StorageEngine* engine,
                                         const IndexPick& pick) {
  JAGUAR_ASSIGN_OR_RETURN(std::vector<RecordId> rids,
                          BTree(engine, pick.root).Scan(pick.lower, pick.upper));
  ScansCounter()->Add();
  if (!pick.equality) RangeScansCounter()->Add();
  LookupsCounter()->Add(rids.size());
  return rids;
}

Result<TableHeap::Iterator> OpenSource(TableHeap* heap, const IndexPick* pick,
                                       bool chain_order,
                                       std::vector<RecordId>* rids) {
  if (pick == nullptr) return heap->Scan();
  JAGUAR_ASSIGN_OR_RETURN(*rids, ProbeIndex(heap->engine(), *pick));
  if (chain_order) JAGUAR_RETURN_IF_ERROR(heap->OrderByChain(rids));
  return heap->Fetch(*rids);
}

}  // namespace exec
}  // namespace jaguar
