#include "exec/aggregate.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/bytes.h"
#include "common/string_util.h"
#include "obs/metrics.h"

namespace jaguar {
namespace exec {

namespace {

struct AggMetricsCounters {
  obs::Counter* rows;
  obs::Counter* groups;
  obs::Counter* partial_merges;
};

AggMetricsCounters* AggMetrics() {
  static AggMetricsCounters* m = [] {
    obs::MetricsRegistry* reg = obs::MetricsRegistry::Global();
    return new AggMetricsCounters{
        reg->GetCounter("exec.agg.rows"),
        reg->GetCounter("exec.agg.groups"),
        reg->GetCounter("exec.agg.partial_merges"),
    };
  }();
  return m;
}

Result<AggFn> ParseAggFn(const std::string& lower) {
  if (lower == "count") return AggFn::kCount;
  if (lower == "count_star") return AggFn::kCountStar;
  if (lower == "sum") return AggFn::kSum;
  if (lower == "avg") return AggFn::kAvg;
  if (lower == "min") return AggFn::kMin;
  if (lower == "max") return AggFn::kMax;
  return InvalidArgument("unknown aggregate function '" + lower + "'");
}

bool ExprContainsAggregate(const sql::Expr& expr) {
  switch (expr.kind) {
    case sql::ExprKind::kFunctionCall:
      if (IsAggregateFunctionName(expr.function)) return true;
      for (const sql::ExprPtr& arg : expr.args) {
        if (arg != nullptr && ExprContainsAggregate(*arg)) return true;
      }
      return false;
    case sql::ExprKind::kUnary:
      return expr.left != nullptr && ExprContainsAggregate(*expr.left);
    case sql::ExprKind::kBinary:
      return (expr.left != nullptr && ExprContainsAggregate(*expr.left)) ||
             (expr.right != nullptr && ExprContainsAggregate(*expr.right));
    default:
      return false;
  }
}

std::string SerializeKey(const std::vector<Value>& keys) {
  BufferWriter w;
  for (const Value& v : keys) v.WriteTo(&w);
  return std::string(reinterpret_cast<const char*>(w.buffer().data()),
                     w.size());
}

}  // namespace

bool IsAggregateFunctionName(const std::string& name) {
  return EqualsIgnoreCase(name, "count") || EqualsIgnoreCase(name, "sum") ||
         EqualsIgnoreCase(name, "avg") || EqualsIgnoreCase(name, "min") ||
         EqualsIgnoreCase(name, "max") || EqualsIgnoreCase(name, "count_star");
}

bool SelectHasAggregate(const sql::SelectStmt& sel) {
  for (const sql::SelectItem& item : sel.items) {
    if (!item.is_star && item.expr->kind == sql::ExprKind::kFunctionCall &&
        IsAggregateFunctionName(item.expr->function)) {
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// AggAccum
// ---------------------------------------------------------------------------

Status AggAccum::Accumulate(const AggSpec& spec, const Value& v) {
  if (v.is_null()) return Status::OK();  // SQL: aggregates ignore NULLs
  ++count;
  if (spec.fn == AggFn::kSum || spec.fn == AggFn::kAvg) {
    JAGUAR_ASSIGN_OR_RETURN(double d, v.CoerceDouble());
    sum_double += d;
    if (v.type() == TypeId::kInt) {
      if (__builtin_add_overflow(sum_int, v.AsInt(), &sum_int)) {
        return OutOfRange("SUM/AVG overflows 64-bit integer range");
      }
    } else {
      is_double = true;
    }
  } else if (spec.fn == AggFn::kMin || spec.fn == AggFn::kMax) {
    if (!any) {
      min_value = v;
      max_value = v;
    } else {
      JAGUAR_ASSIGN_OR_RETURN(int cmp_min, v.Compare(min_value));
      if (cmp_min < 0) min_value = v;
      JAGUAR_ASSIGN_OR_RETURN(int cmp_max, v.Compare(max_value));
      if (cmp_max > 0) max_value = v;
    }
  }
  any = true;
  return Status::OK();
}

Status AggAccum::Merge(const AggSpec& spec, const AggAccum& other) {
  count += other.count;
  if (spec.fn == AggFn::kSum || spec.fn == AggFn::kAvg) {
    // Partial sums are combined in morsel order: deterministic, and exact
    // (hence byte-identical to serial) whenever the additions are exact.
    if (__builtin_add_overflow(sum_int, other.sum_int, &sum_int)) {
      return OutOfRange("SUM/AVG overflows 64-bit integer range");
    }
    sum_double += other.sum_double;
    is_double = is_double || other.is_double;
  } else if ((spec.fn == AggFn::kMin || spec.fn == AggFn::kMax) && other.any) {
    if (!any) {
      min_value = other.min_value;
      max_value = other.max_value;
    } else {
      // Strict comparisons keep this (earlier-in-scan-order) side on ties,
      // matching the serial first-wins behavior.
      JAGUAR_ASSIGN_OR_RETURN(int cmp_min, other.min_value.Compare(min_value));
      if (cmp_min < 0) min_value = other.min_value;
      JAGUAR_ASSIGN_OR_RETURN(int cmp_max, other.max_value.Compare(max_value));
      if (cmp_max > 0) max_value = other.max_value;
    }
  }
  any = any || other.any;
  return Status::OK();
}

Value AggAccum::Finalize(const AggSpec& spec) const {
  if (spec.fn == AggFn::kCount || spec.fn == AggFn::kCountStar) {
    return Value::Int(count);
  }
  if (!any) return Value::Null();  // empty group input
  if (spec.fn == AggFn::kSum) {
    return is_double ? Value::Double(sum_double) : Value::Int(sum_int);
  }
  if (spec.fn == AggFn::kAvg) {
    return Value::Double(sum_double / static_cast<double>(count));
  }
  return spec.fn == AggFn::kMin ? min_value : max_value;
}

// ---------------------------------------------------------------------------
// Planning
// ---------------------------------------------------------------------------

Result<AggregatePlan> PlanAggregate(const sql::SelectStmt& sel,
                                    const Schema& input,
                                    const std::string& table_name,
                                    const std::string& table_alias,
                                    UdfResolver* resolver) {
  AggregatePlan plan;
  for (const sql::ExprPtr& key : sel.group_by) {
    JAGUAR_ASSIGN_OR_RETURN(
        BoundExprPtr bound,
        Bind(*key, input, table_name, table_alias, resolver));
    plan.group_keys.push_back(std::move(bound));
    plan.group_texts.push_back(key->ToString());
  }

  std::vector<Column> out_cols;
  for (const sql::SelectItem& item : sel.items) {
    if (item.is_star) {
      return NotSupported("SELECT * cannot be combined with aggregation");
    }
    const bool is_agg = item.expr->kind == sql::ExprKind::kFunctionCall &&
                        IsAggregateFunctionName(item.expr->function);
    if (is_agg) {
      const std::string lower = ToLower(item.expr->function);
      AggSpec spec;
      JAGUAR_ASSIGN_OR_RETURN(spec.fn, ParseAggFn(lower));
      if (spec.fn != AggFn::kCountStar) {
        if (item.expr->args.size() != 1) {
          return InvalidArgument(lower + " takes exactly one argument");
        }
        JAGUAR_ASSIGN_OR_RETURN(
            spec.arg, Bind(*item.expr->args[0], input, table_name,
                           table_alias, resolver));
      }
      if (spec.fn == AggFn::kCount || spec.fn == AggFn::kCountStar) {
        spec.out_type = TypeId::kInt;
      } else if (spec.fn == AggFn::kAvg) {
        spec.out_type = TypeId::kDouble;
      } else if (spec.fn == AggFn::kSum) {
        spec.out_type = spec.arg->result_type == TypeId::kDouble
                            ? TypeId::kDouble
                            : TypeId::kInt;
      } else {
        spec.out_type = spec.arg->result_type;
      }
      std::string name =
          !item.alias.empty()
              ? item.alias
              : (spec.fn == AggFn::kCountStar ? "count(*)"
                                              : item.expr->ToString());
      out_cols.push_back({std::move(name), spec.out_type});
      plan.outputs.push_back({true, plan.specs.size()});
      plan.specs.push_back(std::move(spec));
      continue;
    }
    // Must textually match a GROUP BY expression (standard simple rule).
    const std::string text = item.expr->ToString();
    size_t key_index = plan.group_texts.size();
    for (size_t k = 0; k < plan.group_texts.size(); ++k) {
      if (plan.group_texts[k] == text) {
        key_index = k;
        break;
      }
    }
    if (key_index == plan.group_texts.size()) {
      return NotSupported("select item '" + text +
                          "' is neither an aggregate nor a GROUP BY key");
    }
    std::string name = !item.alias.empty() ? item.alias : text;
    out_cols.push_back(
        {std::move(name), plan.group_keys[key_index]->result_type});
    plan.outputs.push_back({false, key_index});
  }
  plan.out_schema = Schema(std::move(out_cols));
  return plan;
}

std::vector<const BoundExpr*> AggregatePlan::Inputs() const {
  std::vector<const BoundExpr*> inputs;
  for (const BoundExprPtr& key : group_keys) inputs.push_back(key.get());
  for (const AggSpec& spec : specs) {
    if (spec.arg != nullptr) inputs.push_back(spec.arg.get());
  }
  return inputs;
}

Result<BoundExprPtr> BindAggregateOrderKey(const sql::SelectStmt& sel,
                                           const AggregatePlan& plan,
                                           UdfResolver* resolver) {
  const std::string text = sel.order_by->ToString();
  // A key matching a select item (by unparse text or alias) sorts on that
  // output column — this is how ORDER BY composes with aggregates, since
  // aggregate values only exist in the output row.
  for (size_t i = 0; i < sel.items.size(); ++i) {
    const sql::SelectItem& item = sel.items[i];
    if (item.is_star) continue;
    if ((!item.alias.empty() && item.alias == text) ||
        item.expr->ToString() == text) {
      auto col = std::make_unique<BoundExpr>();
      col->kind = BoundExprKind::kColumn;
      col->column_index = i;
      col->result_type = plan.out_schema.column(i).type;
      return col;
    }
  }
  if (ExprContainsAggregate(*sel.order_by)) {
    return NotSupported("ORDER BY aggregate '" + text +
                        "' must match a select item");
  }
  return Bind(*sel.order_by, plan.out_schema, sel.table, sel.table_alias,
              resolver);
}

// ---------------------------------------------------------------------------
// HashAggregator
// ---------------------------------------------------------------------------

HashAggregator::HashAggregator(const AggregatePlan* plan)
    : plan_(plan),
      width_(plan->Inputs().size()),
      args_(plan->specs.size(), nullptr) {
  if (plan_->implicit_single_group()) {
    // The implicit group exists even for empty input: global aggregates
    // always produce one row.
    groups_.emplace("", Group{{}, std::vector<AggAccum>(plan_->specs.size())});
  }
}

HashAggregator::Group* HashAggregator::FindOrCreateGroup(
    const std::string& key_bytes, std::vector<Value> keys) {
  auto [it, inserted] = groups_.try_emplace(key_bytes);
  if (inserted) {
    it->second.keys = std::move(keys);
    it->second.accums.assign(plan_->specs.size(), AggAccum{});
  }
  return &it->second;
}

Status HashAggregator::AccumulateRow(Group* group,
                                     const std::vector<const Value*>& args) {
  for (size_t a = 0; a < plan_->specs.size(); ++a) {
    if (plan_->specs[a].fn == AggFn::kCountStar) {
      ++group->accums[a].count;
      continue;
    }
    JAGUAR_RETURN_IF_ERROR(
        group->accums[a].Accumulate(plan_->specs[a], *args[a]));
  }
  return Status::OK();
}

Status HashAggregator::Consume(std::vector<Value>* values, size_t num_rows) {
  AggMetrics()->rows->Add(num_rows);
  const size_t num_keys = plan_->group_keys.size();
  for (size_t row = 0; row < num_rows; ++row) {
    Value* in = values->data() + row * width_;
    std::vector<Value> keys(std::make_move_iterator(in),
                            std::make_move_iterator(in + num_keys));
    std::string key_bytes = SerializeKey(keys);
    Group* group = FindOrCreateGroup(key_bytes, std::move(keys));
    const Value* arg = in + num_keys;
    for (size_t a = 0; a < plan_->specs.size(); ++a) {
      if (plan_->specs[a].arg != nullptr) args_[a] = arg++;
    }
    JAGUAR_RETURN_IF_ERROR(AccumulateRow(group, args_));
  }
  return Status::OK();
}

Status HashAggregator::MergeFrom(HashAggregator* other,
                                 const QueryDeadline* deadline) {
  AggMetrics()->partial_merges->Add();
  size_t merged = 0;
  for (auto& [key, group] : other->groups_) {
    if ((++merged & 1023) == 0) {
      JAGUAR_RETURN_IF_ERROR(CheckDeadline(deadline));
    }
    auto [it, inserted] = groups_.try_emplace(key);
    if (inserted) {
      it->second = std::move(group);
      continue;
    }
    for (size_t a = 0; a < plan_->specs.size(); ++a) {
      JAGUAR_RETURN_IF_ERROR(
          it->second.accums[a].Merge(plan_->specs[a], group.accums[a]));
    }
  }
  other->groups_.clear();
  return Status::OK();
}

Result<std::vector<Tuple>> HashAggregator::Finalize(
    const QueryDeadline* deadline) {
  AggMetrics()->groups->Add(groups_.size());
  // Emit in serialized-key-byte order — the order the serial engine has
  // always produced (it grouped into an ordered map).
  std::vector<std::pair<const std::string*, Group*>> ordered;
  ordered.reserve(groups_.size());
  for (auto& [key, group] : groups_) ordered.emplace_back(&key, &group);
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) { return *a.first < *b.first; });

  std::vector<Tuple> rows;
  rows.reserve(ordered.size());
  size_t emitted = 0;
  for (auto& [key, group] : ordered) {
    if ((++emitted & 1023) == 0) {
      JAGUAR_RETURN_IF_ERROR(CheckDeadline(deadline));
    }
    std::vector<Value> row;
    row.reserve(plan_->outputs.size());
    for (const AggregateOutput& out : plan_->outputs) {
      row.push_back(out.is_agg
                        ? group->accums[out.index].Finalize(
                              plan_->specs[out.index])
                        : group->keys[out.index]);
    }
    rows.push_back(Tuple(std::move(row)));
  }
  return rows;
}

}  // namespace exec
}  // namespace jaguar
