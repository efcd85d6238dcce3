#ifndef JAGUAR_EXEC_EXPRESSION_H_
#define JAGUAR_EXEC_EXPRESSION_H_

/// \file expression.h
/// Bound (resolved, type-checked) expressions and their evaluator.
///
/// The binder turns a parsed `sql::Expr` into a `BoundExpr`: column references
/// become column indices, and function calls are resolved to `UdfRunner`
/// instances through a `UdfResolver`. Binding happens once per query; the
/// evaluator then runs over batches of rows, a record at a time in the
/// per-tuple engine — and its call nodes are where the paper's
/// per-invocation UDF costs live.

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "sql/ast.h"
#include "types/schema.h"
#include "types/tuple.h"
#include "udf/udf.h"

namespace jaguar {
namespace exec {

using jaguar::UdfResolver;

enum class BoundExprKind : uint8_t {
  kLiteral,
  kColumn,
  kUnary,
  kBinary,
  kCall,
};

struct BoundExpr;
using BoundExprPtr = std::unique_ptr<BoundExpr>;

struct BoundExpr {
  BoundExprKind kind;
  TypeId result_type = TypeId::kNull;

  // kLiteral
  Value literal;

  // kColumn
  size_t column_index = 0;

  // kUnary/kBinary
  sql::UnaryOp unary_op = sql::UnaryOp::kNeg;
  sql::BinaryOp binary_op = sql::BinaryOp::kAdd;
  BoundExprPtr left;
  BoundExprPtr right;

  // kCall
  std::string function_name;
  UdfRunner* runner = nullptr;  ///< Owned by the resolver.
  std::vector<BoundExprPtr> args;
};

/// Binds `expr` against `schema`. `table_alias` validates qualified column
/// references (`S.history` requires alias S or the table name). `resolver`
/// may be null, in which case function calls fail to bind.
Result<BoundExprPtr> Bind(const sql::Expr& expr, const Schema& schema,
                          const std::string& table_name,
                          const std::string& table_alias,
                          UdfResolver* resolver);

/// Row positions in a batch, ascending: the rows an evaluation runs on.
using Selection = std::vector<uint32_t>;

/// The one expression evaluator: a bound expression over a batch of rows,
/// restricted to a selection vector, gives one value per selected row; any
/// error fails the whole evaluation. AND and OR run their right side only
/// on the rows the left side left undecided (not FALSE under AND, not TRUE
/// under OR): row for row, the per-tuple short-circuit. A call node is the
/// only node that reads `batched`: over its arguments' values it makes one
/// `UdfRunner::InvokeBatch` for the selected rows (one boundary crossing,
/// the Section 2.5 batching lever) or one `Invoke` per selected row in row
/// order; an empty selection calls nothing. Scratch columns and selections
/// live from one call to the next, so a record at a time allocates nothing
/// once warm. Not reentrant.
class Evaluator {
 public:
  /// Narrows `*sel`, positions in `rows`, to the rows on which `predicate`
  /// is TRUE. NULL counts as false (SQL's WHERE-clause behavior); a
  /// non-BOOL value is an error.
  Status Filter(const BoundExpr& predicate, const Tuple* rows, bool batched,
                UdfContext* ctx, Selection* sel);

  /// Evaluates every expression of `exprs` over the `num_rows` rows at
  /// `rows` into `*values`, row by row (`(*values)[row * exprs.size() + e]`),
  /// keeping its capacity for the next call. `batched`: one evaluation per
  /// expression over all the rows, so a UDF crosses its boundary once;
  /// otherwise batches of one row, each row's expressions in order — the
  /// per-tuple engine's call order.
  Status EvalRows(const std::vector<const BoundExpr*>& exprs,
                  const Tuple* rows, size_t num_rows, bool batched,
                  UdfContext* ctx, std::vector<Value>* values);

 private:
  struct Pass;  ///< One top-level evaluation (expression.cc).
  /// One node's scratch — its values, its rows, or where a call argument's
  /// values are — kept with its capacity from one evaluation to the next,
  /// in place as the pool grows.
  struct Scratch {
    std::vector<Value> values;
    Selection rows;
    const std::vector<Value>* arg = nullptr;
  };
  std::deque<Scratch> scratch_;
  std::vector<std::vector<Value>> call_rows_;  ///< A call's argument rows.
};

}  // namespace exec
}  // namespace jaguar

#endif  // JAGUAR_EXEC_EXPRESSION_H_
