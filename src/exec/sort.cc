#include "exec/sort.h"

#include <algorithm>
#include <queue>
#include <utility>

#include "obs/metrics.h"

namespace jaguar {
namespace exec {

namespace {

struct SortMetricsCounters {
  obs::Counter* queries;
  obs::Counter* rows;
  obs::Counter* topk_queries;
  obs::Counter* runs_merged;
};

SortMetricsCounters* SortMetrics() {
  static SortMetricsCounters* m = [] {
    obs::MetricsRegistry* reg = obs::MetricsRegistry::Global();
    return new SortMetricsCounters{
        reg->GetCounter("exec.sort.queries"),
        reg->GetCounter("exec.sort.rows"),
        reg->GetCounter("exec.sort.topk_queries"),
        reg->GetCounter("exec.sort.runs_merged"),
    };
  }();
  return m;
}

}  // namespace

/// Strict total order over sort entries. Ascending output is
/// (NULL-first key, run, pos); descending output is its exact reverse —
/// which is what the engine's historical stable_sort + reverse produced.
class EntryOrder {
 public:
  explicit EntryOrder(bool descending) : desc_(descending) {}

  /// True when `a` precedes `b` in output order. A failed key comparison
  /// is captured in status() and orders arbitrarily from then on.
  bool Before(const Sorter::Entry& a, const Sorter::Entry& b) {
    if (!status_.ok()) return false;
    int cmp;
    if (a.key.is_null() || b.key.is_null()) {
      cmp = a.key.is_null() ? (b.key.is_null() ? 0 : -1) : 1;
    } else {
      Result<int> r = a.key.Compare(b.key);
      if (!r.ok()) {
        status_ = r.status();
        return false;
      }
      cmp = *r;
    }
    if (cmp != 0) return desc_ ? cmp > 0 : cmp < 0;
    if (a.run != b.run) return desc_ ? a.run > b.run : a.run < b.run;
    return desc_ ? a.pos > b.pos : a.pos < b.pos;
  }

  const Status& status() const { return status_; }

 private:
  bool desc_;
  Status status_;
};

Sorter::Sorter(bool descending, int64_t limit, uint64_t run_id)
    : limit_(limit),
      run_(run_id),
      order_(std::make_unique<EntryOrder>(descending)) {}

Sorter::~Sorter() = default;
Sorter::Sorter(Sorter&&) = default;
Sorter& Sorter::operator=(Sorter&&) = default;

void Sorter::Add(Value key, Tuple row) {
  SortMetrics()->rows->Add();
  Entry e{std::move(key), run_, next_pos_++, std::move(row)};
  auto before = [ord = order_.get()](const Entry& a, const Entry& b) {
    return ord->Before(a, b);
  };
  if (limit_ < 0) {
    entries_.push_back(std::move(e));
    return;
  }
  if (limit_ == 0) return;
  // Bounded top-k: keep entries_ a max-heap under Before (its top is the
  // entry that comes *latest* in output order) and evict past `limit_`.
  entries_.push_back(std::move(e));
  std::push_heap(entries_.begin(), entries_.end(), before);
  if (entries_.size() > static_cast<size_t>(limit_)) {
    std::pop_heap(entries_.begin(), entries_.end(), before);
    entries_.pop_back();
  }
}

Status Sorter::Finish() {
  auto before = [ord = order_.get()](const Entry& a, const Entry& b) {
    return ord->Before(a, b);
  };
  if (limit_ >= 0) {
    std::sort_heap(entries_.begin(), entries_.end(), before);
  } else {
    // Before is a strict total order (scan position breaks all ties), so a
    // plain sort is deterministic and matches stable_sort + reverse.
    std::sort(entries_.begin(), entries_.end(), before);
  }
  return order_->status();
}

std::vector<Sorter::Entry> Sorter::TakeEntries() { return std::move(entries_); }

std::vector<Tuple> Sorter::TakeRows() {
  std::vector<Tuple> rows;
  rows.reserve(entries_.size());
  for (Entry& e : entries_) rows.push_back(std::move(e.row));
  entries_.clear();
  return rows;
}

Result<std::vector<Tuple>> Sorter::MergeRuns(
    std::vector<std::vector<Entry>> runs, bool descending, int64_t limit,
    const QueryDeadline* deadline) {
  SortMetrics()->runs_merged->Add(runs.size());
  EntryOrder order(descending);
  struct Head {
    size_t run_idx;
    size_t pos;
  };
  // priority_queue pops its "greatest" element; make that the head that
  // comes earliest in output order.
  auto after = [&](const Head& a, const Head& b) {
    return order.Before(runs[b.run_idx][b.pos], runs[a.run_idx][a.pos]);
  };
  std::priority_queue<Head, std::vector<Head>, decltype(after)> heads(after);
  for (size_t r = 0; r < runs.size(); ++r) {
    if (!runs[r].empty()) heads.push({r, 0});
  }

  std::vector<Tuple> out;
  size_t steps = 0;
  while (!heads.empty()) {
    if (limit >= 0 && out.size() >= static_cast<size_t>(limit)) break;
    if ((++steps & 1023) == 0) {
      JAGUAR_RETURN_IF_ERROR(CheckDeadline(deadline));
    }
    Head h = heads.top();
    heads.pop();
    JAGUAR_RETURN_IF_ERROR(order.status());
    out.push_back(std::move(runs[h.run_idx][h.pos].row));
    if (++h.pos < runs[h.run_idx].size()) heads.push(h);
  }
  JAGUAR_RETURN_IF_ERROR(order.status());
  return out;
}

Result<std::vector<Tuple>> SortRows(std::vector<Tuple> rows,
                                    const BoundExpr& key, bool descending,
                                    int64_t limit, UdfContext* ctx,
                                    bool batched,
                                    const QueryDeadline* deadline) {
  SortMetrics()->queries->Add();
  if (limit >= 0) SortMetrics()->topk_queries->Add();
  JAGUAR_RETURN_IF_ERROR(CheckDeadline(deadline));
  std::vector<Value> keys;
  JAGUAR_RETURN_IF_ERROR(EvalRows({&key}, rows, batched, ctx, &keys));
  Sorter sorter(descending, limit);
  for (size_t i = 0; i < rows.size(); ++i) {
    sorter.Add(std::move(keys[i]), std::move(rows[i]));
  }
  JAGUAR_RETURN_IF_ERROR(sorter.Finish());
  return sorter.TakeRows();
}

}  // namespace exec
}  // namespace jaguar
