#include "exec/expression.h"

#include "common/string_util.h"

namespace jaguar {
namespace exec {

namespace {

bool IsNumeric(TypeId t) {
  return t == TypeId::kInt || t == TypeId::kDouble || t == TypeId::kBool;
}

bool IsComparisonOp(sql::BinaryOp op) {
  switch (op) {
    case sql::BinaryOp::kEq:
    case sql::BinaryOp::kNe:
    case sql::BinaryOp::kLt:
    case sql::BinaryOp::kLe:
    case sql::BinaryOp::kGt:
    case sql::BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

bool IsLogicalOp(sql::BinaryOp op) {
  return op == sql::BinaryOp::kAnd || op == sql::BinaryOp::kOr;
}

}  // namespace

Result<BoundExprPtr> Bind(const sql::Expr& expr, const Schema& schema,
                          const std::string& table_name,
                          const std::string& table_alias,
                          UdfResolver* resolver) {
  auto bound = std::make_unique<BoundExpr>();
  switch (expr.kind) {
    case sql::ExprKind::kLiteral: {
      bound->kind = BoundExprKind::kLiteral;
      bound->literal = expr.literal;
      bound->result_type = expr.literal.type();
      return bound;
    }
    case sql::ExprKind::kColumnRef: {
      if (!expr.qualifier.empty() &&
          !EqualsIgnoreCase(expr.qualifier, table_alias) &&
          !EqualsIgnoreCase(expr.qualifier, table_name)) {
        return InvalidArgument("unknown table qualifier '" + expr.qualifier +
                               "'");
      }
      bound->kind = BoundExprKind::kColumn;
      JAGUAR_ASSIGN_OR_RETURN(bound->column_index, schema.IndexOf(expr.column));
      bound->result_type = schema.column(bound->column_index).type;
      return bound;
    }
    case sql::ExprKind::kUnary: {
      bound->kind = BoundExprKind::kUnary;
      bound->unary_op = expr.unary_op;
      JAGUAR_ASSIGN_OR_RETURN(
          bound->left,
          Bind(*expr.left, schema, table_name, table_alias, resolver));
      if (expr.unary_op == sql::UnaryOp::kNeg) {
        if (!IsNumeric(bound->left->result_type) &&
            bound->left->result_type != TypeId::kNull) {
          return InvalidArgument("cannot negate " +
                                 std::string(TypeIdToString(
                                     bound->left->result_type)));
        }
        bound->result_type = bound->left->result_type;
      } else {
        bound->result_type = TypeId::kBool;
      }
      return bound;
    }
    case sql::ExprKind::kBinary: {
      bound->kind = BoundExprKind::kBinary;
      bound->binary_op = expr.binary_op;
      JAGUAR_ASSIGN_OR_RETURN(
          bound->left,
          Bind(*expr.left, schema, table_name, table_alias, resolver));
      JAGUAR_ASSIGN_OR_RETURN(
          bound->right,
          Bind(*expr.right, schema, table_name, table_alias, resolver));
      TypeId lt = bound->left->result_type;
      TypeId rt = bound->right->result_type;
      if (IsComparisonOp(expr.binary_op) || IsLogicalOp(expr.binary_op)) {
        bound->result_type = TypeId::kBool;
      } else {
        // Arithmetic.
        if ((!IsNumeric(lt) && lt != TypeId::kNull) ||
            (!IsNumeric(rt) && rt != TypeId::kNull)) {
          return InvalidArgument(
              StringPrintf("cannot apply %s to %s and %s",
                           sql::BinaryOpToString(expr.binary_op),
                           TypeIdToString(lt), TypeIdToString(rt)));
        }
        bound->result_type =
            (lt == TypeId::kDouble || rt == TypeId::kDouble) ? TypeId::kDouble
                                                             : TypeId::kInt;
      }
      return bound;
    }
    case sql::ExprKind::kFunctionCall: {
      if (resolver == nullptr) {
        return NotSupported("function calls are not available here: " +
                            expr.function);
      }
      bound->kind = BoundExprKind::kCall;
      bound->function_name = expr.function;
      std::vector<TypeId> arg_types;
      JAGUAR_ASSIGN_OR_RETURN(
          bound->runner,
          resolver->Resolve(expr.function, &bound->result_type, &arg_types));
      if (expr.args.size() != arg_types.size()) {
        return InvalidArgument(StringPrintf(
            "function %s expects %zu arguments, got %zu",
            expr.function.c_str(), arg_types.size(), expr.args.size()));
      }
      for (const sql::ExprPtr& arg : expr.args) {
        JAGUAR_ASSIGN_OR_RETURN(
            BoundExprPtr bound_arg,
            Bind(*arg, schema, table_name, table_alias, resolver));
        bound->args.push_back(std::move(bound_arg));
      }
      return bound;
    }
  }
  return Internal("unhandled expression kind");
}

namespace {

Result<Value> EvalArithmetic(sql::BinaryOp op, const Value& l, const Value& r) {
  if (l.is_null() || r.is_null()) return Value::Null();
  if (l.type() == TypeId::kDouble || r.type() == TypeId::kDouble) {
    JAGUAR_ASSIGN_OR_RETURN(double a, l.CoerceDouble());
    JAGUAR_ASSIGN_OR_RETURN(double b, r.CoerceDouble());
    switch (op) {
      case sql::BinaryOp::kAdd: return Value::Double(a + b);
      case sql::BinaryOp::kSub: return Value::Double(a - b);
      case sql::BinaryOp::kMul: return Value::Double(a * b);
      case sql::BinaryOp::kDiv:
        if (b == 0.0) return RuntimeError("division by zero");
        return Value::Double(a / b);
      case sql::BinaryOp::kMod:
        return InvalidArgument("%% is not defined for DOUBLE");
      default: break;
    }
  } else {
    JAGUAR_ASSIGN_OR_RETURN(int64_t a, l.CoerceInt());
    JAGUAR_ASSIGN_OR_RETURN(int64_t b, r.CoerceInt());
    // Integer arithmetic wraps on overflow (two's complement), computed in
    // the unsigned domain so the wrap is defined behavior.
    const uint64_t ua = static_cast<uint64_t>(a);
    const uint64_t ub = static_cast<uint64_t>(b);
    switch (op) {
      case sql::BinaryOp::kAdd:
        return Value::Int(static_cast<int64_t>(ua + ub));
      case sql::BinaryOp::kSub:
        return Value::Int(static_cast<int64_t>(ua - ub));
      case sql::BinaryOp::kMul:
        return Value::Int(static_cast<int64_t>(ua * ub));
      case sql::BinaryOp::kDiv:
        if (b == 0) return RuntimeError("division by zero");
        if (b == -1) return Value::Int(static_cast<int64_t>(-ua));
        return Value::Int(a / b);
      case sql::BinaryOp::kMod:
        if (b == 0) return RuntimeError("modulo by zero");
        if (b == -1) return Value::Int(0);
        return Value::Int(a % b);
      default: break;
    }
  }
  return Internal("unhandled arithmetic op");
}

Result<Value> EvalComparison(sql::BinaryOp op, const Value& l, const Value& r) {
  if (l.is_null() || r.is_null()) return Value::Null();
  if (op == sql::BinaryOp::kEq) return Value::Bool(l.Equals(r));
  if (op == sql::BinaryOp::kNe) return Value::Bool(!l.Equals(r));
  JAGUAR_ASSIGN_OR_RETURN(int c, l.Compare(r));
  switch (op) {
    case sql::BinaryOp::kLt: return Value::Bool(c < 0);
    case sql::BinaryOp::kLe: return Value::Bool(c <= 0);
    case sql::BinaryOp::kGt: return Value::Bool(c > 0);
    case sql::BinaryOp::kGe: return Value::Bool(c >= 0);
    default: break;
  }
  return Internal("unhandled comparison op");
}

Result<Value> EvalUnary(sql::UnaryOp op, const Value& v) {
  if (v.is_null()) return Value::Null();
  if (op == sql::UnaryOp::kNeg) {
    if (v.type() == TypeId::kDouble) return Value::Double(-v.AsDouble());
    JAGUAR_ASSIGN_OR_RETURN(int64_t i, v.CoerceInt());
    return Value::Int(static_cast<int64_t>(-static_cast<uint64_t>(i)));
  }
  if (v.type() != TypeId::kBool) {
    return InvalidArgument("NOT operand is not BOOL");
  }
  return Value::Bool(!v.AsBool());
}

/// SQL's three-valued truth of a logical operand: 1 TRUE, 0 FALSE, -1
/// unknown (NULL); anything but BOOL or NULL is an error.
Result<int> Truth(const Value& v) {
  if (v.is_null()) return -1;
  if (v.type() != TypeId::kBool) {
    return InvalidArgument("logical operand is not BOOL");
  }
  return v.AsBool() ? 1 : 0;
}

}  // namespace

/// One top-level evaluation over `rows`: it takes scratch from the
/// evaluator's pool in order, and the next evaluation reuses all of it.
struct Evaluator::Pass {
  Evaluator* ev;
  const Tuple* rows;
  bool batched;
  UdfContext* ctx;
  size_t used = 0;

  Scratch* Take() {
    if (used == ev->scratch_.size()) ev->scratch_.emplace_back();
    return &ev->scratch_[used++];
  }
  Status Eval(const BoundExpr& expr, const Selection& sel,
              std::vector<Value>* out);
  Status EvalAndOr(const BoundExpr& expr, const Selection& sel,
                   std::vector<Value>* out);
  /// `expr` over `sel` for a reader: a column or a literal is read in place
  /// (null), anything else is evaluated into scratch.
  Result<const std::vector<Value>*> Load(const BoundExpr& expr,
                                         const Selection& sel);
  const Value& At(const BoundExpr& expr, const std::vector<Value>* loaded,
                  const Selection& sel, size_t i) const {
    if (loaded != nullptr) return (*loaded)[i];
    if (expr.kind == BoundExprKind::kLiteral) return expr.literal;
    return rows[sel[i]].value(expr.column_index);
  }
};

Status Evaluator::Filter(const BoundExpr& predicate, const Tuple* rows,
                         bool batched, UdfContext* ctx, Selection* sel) {
  Pass pass{this, rows, batched, ctx};
  JAGUAR_ASSIGN_OR_RETURN(const std::vector<Value>* values,
                          pass.Load(predicate, *sel));
  size_t kept = 0;
  for (size_t i = 0; i < sel->size(); ++i) {
    const Value& v = pass.At(predicate, values, *sel, i);
    if (v.is_null()) continue;
    if (v.type() != TypeId::kBool) {
      return InvalidArgument("WHERE clause is not a boolean expression");
    }
    if (v.AsBool()) (*sel)[kept++] = (*sel)[i];
  }
  sel->resize(kept);
  return Status::OK();
}

Status Evaluator::EvalRows(const std::vector<const BoundExpr*>& exprs,
                           const Tuple* rows, size_t num_rows, bool batched,
                           UdfContext* ctx, std::vector<Value>* values) {
  const size_t width = exprs.size();
  values->resize(num_rows * width);
  const size_t step = batched ? num_rows : 1;
  for (size_t first = 0; first < num_rows; first += step) {
    Pass pass{this, rows + first, batched, ctx};
    Selection& sel = pass.Take()->rows;
    sel.resize(step);
    for (size_t i = 0; i < step; ++i) sel[i] = static_cast<uint32_t>(i);
    for (size_t e = 0; e < width; ++e) {
      std::vector<Value>& column = pass.Take()->values;
      JAGUAR_RETURN_IF_ERROR(pass.Eval(*exprs[e], sel, &column));
      for (size_t i = 0; i < sel.size(); ++i) {
        (*values)[(first + i) * width + e] = std::move(column[i]);
      }
    }
  }
  return Status::OK();
}

Result<const std::vector<Value>*> Evaluator::Pass::Load(
    const BoundExpr& expr, const Selection& sel) {
  if (expr.kind == BoundExprKind::kLiteral) return nullptr;
  if (expr.kind == BoundExprKind::kColumn) {
    for (uint32_t row : sel) {
      if (expr.column_index >= rows[row].num_values()) {
        return Internal("column index out of range");
      }
    }
    return nullptr;
  }
  std::vector<Value>* values = &Take()->values;
  JAGUAR_RETURN_IF_ERROR(Eval(expr, sel, values));
  return values;
}

Status Evaluator::Pass::Eval(const BoundExpr& expr, const Selection& sel,
                             std::vector<Value>* out) {
  const size_t n = sel.size();
  out->resize(n);
  switch (expr.kind) {
    case BoundExprKind::kLiteral:
    case BoundExprKind::kColumn:
      JAGUAR_RETURN_IF_ERROR(Load(expr, sel).status());
      for (size_t i = 0; i < n; ++i) (*out)[i] = At(expr, nullptr, sel, i);
      return Status::OK();
    case BoundExprKind::kUnary: {
      JAGUAR_ASSIGN_OR_RETURN(const std::vector<Value>* v,
                              Load(*expr.left, sel));
      for (size_t i = 0; i < n; ++i) {
        JAGUAR_ASSIGN_OR_RETURN(
            (*out)[i], EvalUnary(expr.unary_op, At(*expr.left, v, sel, i)));
      }
      return Status::OK();
    }
    case BoundExprKind::kBinary: {
      if (IsLogicalOp(expr.binary_op)) return EvalAndOr(expr, sel, out);
      JAGUAR_ASSIGN_OR_RETURN(const std::vector<Value>* l,
                              Load(*expr.left, sel));
      JAGUAR_ASSIGN_OR_RETURN(const std::vector<Value>* r,
                              Load(*expr.right, sel));
      for (size_t i = 0; i < n; ++i) {
        const Value& a = At(*expr.left, l, sel, i);
        const Value& b = At(*expr.right, r, sel, i);
        JAGUAR_ASSIGN_OR_RETURN(
            (*out)[i], IsComparisonOp(expr.binary_op)
                           ? EvalComparison(expr.binary_op, a, b)
                           : EvalArithmetic(expr.binary_op, a, b));
      }
      return Status::OK();
    }
    case BoundExprKind::kCall: {
      if (n == 0) return Status::OK();
      // Each argument over the selection, in order; then the argument rows
      // cross in one batch or one call per row.
      const size_t width = expr.args.size();
      const size_t first = used;
      for (size_t a = 0; a < width; ++a) Take();
      for (size_t a = 0; a < width; ++a) {
        JAGUAR_ASSIGN_OR_RETURN(ev->scratch_[first + a].arg,
                                Load(*expr.args[a], sel));
      }
      ev->call_rows_.resize(n);
      for (size_t i = 0; i < n; ++i) {
        ev->call_rows_[i].resize(width);
        for (size_t a = 0; a < width; ++a) {
          ev->call_rows_[i][a] =
              At(*expr.args[a], ev->scratch_[first + a].arg, sel, i);
        }
      }
      if (batched) {
        JAGUAR_ASSIGN_OR_RETURN(*out,
                                expr.runner->InvokeBatch(ev->call_rows_, ctx));
        return Status::OK();
      }
      for (size_t i = 0; i < n; ++i) {
        JAGUAR_ASSIGN_OR_RETURN((*out)[i],
                                expr.runner->Invoke(ev->call_rows_[i], ctx));
      }
      return Status::OK();
    }
  }
  return Internal("unhandled bound expression kind");
}

Status Evaluator::Pass::EvalAndOr(const BoundExpr& expr,
                                  const Selection& sel,
                                  std::vector<Value>* out) {
  // The left side decides a row that is FALSE under AND or TRUE under OR;
  // the others stay open, and only they see the right side. A row's result
  // is its left value unless its right value is the deciding one or NULL.
  const int deciding = expr.binary_op == sql::BinaryOp::kAnd ? 0 : 1;
  JAGUAR_RETURN_IF_ERROR(Eval(*expr.left, sel, out));
  Selection& open = Take()->rows;
  open.clear();
  for (size_t i = 0; i < sel.size(); ++i) {
    JAGUAR_ASSIGN_OR_RETURN(int left, Truth((*out)[i]));
    if (left != deciding) open.push_back(sel[i]);
  }
  if (open.empty()) return Status::OK();
  JAGUAR_ASSIGN_OR_RETURN(const std::vector<Value>* right,
                          Load(*expr.right, open));
  for (size_t i = 0, j = 0; i < sel.size(); ++i) {
    if (Truth((*out)[i]).value() == deciding) continue;
    const Value& r = At(*expr.right, right, open, j++);
    JAGUAR_ASSIGN_OR_RETURN(int truth, Truth(r));
    if (truth == deciding || truth < 0) (*out)[i] = r;
  }
  return Status::OK();
}

}  // namespace exec
}  // namespace jaguar
