#ifndef JAGUAR_EXEC_EXPRESSION_H_
#define JAGUAR_EXEC_EXPRESSION_H_

/// \file expression.h
/// Bound (resolved, type-checked) expressions and their evaluator.
///
/// The binder turns a parsed `sql::Expr` into a `BoundExpr`: column references
/// become column indices, and function calls are resolved to `UdfRunner`
/// instances through a `UdfResolver`. Binding happens once per query; the
/// evaluator then runs per tuple — which is where the paper's per-invocation
/// UDF costs live.

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

/// Evaluates a bound expression against one tuple. `ctx` carries the UDF
/// callback channel (may be null for UDF-free expressions).
Result<Value> Eval(const BoundExpr& expr, const Tuple& tuple, UdfContext* ctx);

/// Evaluates `expr` as a predicate: NULL results count as false (SQL's
/// WHERE-clause behavior).
Result<bool> EvalPredicate(const BoundExpr& expr, const Tuple& tuple,
                           UdfContext* ctx);

/// Evaluates `expr` over a batch of tuples, returning one value per tuple in
/// order. Semantically identical to calling `Eval` per tuple — any error
/// fails the whole batch — but UDF call nodes cross the execution boundary
/// once per batch through `UdfRunner::InvokeBatch` instead of once per tuple
/// (the Section 2.5 batching lever). Logical AND/OR fall back to per-tuple
/// evaluation to preserve three-valued short-circuit behavior exactly
/// (including *which* sub-expressions run).
Result<std::vector<Value>> EvalBatch(const BoundExpr& expr,
                                     const std::vector<Tuple>& tuples,
                                     UdfContext* ctx);

/// Batch counterpart of `EvalPredicate`: one pass/fail flag per tuple.
Result<std::vector<char>> EvalPredicateBatch(const BoundExpr& expr,
                                             const std::vector<Tuple>& tuples,
                                             UdfContext* ctx);

/// The one place a plan chooses between per-batch and per-row UDF calls
/// for its projection, sort key, group keys and aggregate arguments:
/// evaluates every expression of `exprs` over `tuples` into `*values`, row
/// by row (`(*values)[row * exprs.size() + e]`), replacing its contents
/// but keeping its capacity for the next call. `batched`: one `EvalBatch`
/// per expression, so a UDF crosses its boundary once per batch; otherwise
/// `Eval` row by row, each row's expressions in order — the per-tuple
/// engine's call order. An empty batch calls no UDF.
Status EvalRows(const std::vector<const BoundExpr*>& exprs,
                const std::vector<Tuple>& tuples, bool batched,
                UdfContext* ctx, std::vector<Value>* values);

}  // namespace exec
}  // namespace jaguar

#endif  // JAGUAR_EXEC_EXPRESSION_H_
