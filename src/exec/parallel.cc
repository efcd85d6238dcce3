#include "exec/parallel.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "obs/metrics.h"
#include "storage/table_heap.h"

namespace jaguar {
namespace exec {

namespace {

struct ParallelMetrics {
  obs::Counter* queries;
  obs::Counter* workers;
  obs::Counter* morsels;
  obs::Counter* tuples;
  obs::Counter* agg_queries;
  obs::Counter* agg_parallel_queries;
  obs::Counter* sort_queries;
  obs::Counter* sort_parallel_queries;
  obs::Counter* sort_topk_queries;
};

ParallelMetrics* Metrics() {
  static ParallelMetrics* m = [] {
    obs::MetricsRegistry* reg = obs::MetricsRegistry::Global();
    return new ParallelMetrics{
        reg->GetCounter("exec.parallel.queries"),
        reg->GetCounter("exec.parallel.workers"),
        reg->GetCounter("exec.parallel.morsels"),
        reg->GetCounter("exec.parallel.tuples"),
        reg->GetCounter("exec.agg.queries"),
        reg->GetCounter("exec.agg.parallel_queries"),
        reg->GetCounter("exec.sort.queries"),
        reg->GetCounter("exec.sort.parallel_queries"),
        reg->GetCounter("exec.sort.topk_queries"),
    };
  }();
  return m;
}

/// Page-chain split shared by every morsel-driven plan shape.
struct MorselPlan {
  std::vector<PageId> pages;
  size_t morsel_pages = 1;
  size_t num_morsels = 0;
  size_t num_workers = 1;
};

Result<MorselPlan> PlanMorsels(StorageEngine* engine, PageId first_page,
                               size_t morsel_pages, size_t num_workers) {
  MorselPlan plan;
  plan.morsel_pages = morsel_pages > 0 ? morsel_pages : 1;
  TableHeap heap(engine, first_page);
  JAGUAR_ASSIGN_OR_RETURN(plan.pages, heap.ListPages());
  plan.num_morsels =
      (plan.pages.size() + plan.morsel_pages - 1) / plan.morsel_pages;
  // Every worker's cursor may pin kMaxPins frames at once and the pool
  // returns ResourceExhausted rather than wait for a frame, so run no more
  // workers than the pool can pin for, keeping one frame for readahead.
  const size_t capacity = engine->buffer_pool()->capacity();
  const size_t pinnable =
      capacity > 0 ? (capacity - 1) / TableHeap::Iterator::kMaxPins : 0;
  plan.num_workers = std::max<size_t>(
      1, std::min({num_workers, plan.num_morsels, pinnable}));
  return plan;
}

/// Per-morsel work: `m` is the morsel index, [page_begin, page_end) its
/// slice of the page chain; `heap` and `ctx` are this worker's private
/// cursor and UDF context.
using MorselFn = std::function<Status(size_t m, size_t page_begin,
                                      size_t page_end, TableHeap* heap,
                                      UdfContext* ctx)>;

/// Launches workers pulling morsel indices from an atomic dispenser and
/// running `fn` on each. First error wins and cancels remaining morsels;
/// once `*enough` is set no further morsel is handed out.
Status DriveMorsels(StorageEngine* engine, PageId first_page,
                    const MorselPlan& plan, UdfCallbackHandler* handler,
                    uint64_t callback_quota, const QueryDeadline* deadline,
                    const MorselFn& fn,
                    const std::atomic<bool>* enough = nullptr) {
  Metrics()->queries->Add();
  Metrics()->workers->Add(plan.num_workers);
  Metrics()->morsels->Add(plan.num_morsels);

  std::atomic<size_t> dispenser{0};
  std::atomic<bool> stop{false};
  std::mutex error_mutex;
  Status first_error;

  auto worker = [&] {
    // Per-worker cursor and callback context; everything else the worker
    // touches (buffer pool, runners, metrics) is shared and thread-safe.
    TableHeap worker_heap(engine, first_page);
    UdfContext ctx(handler);
    ctx.set_callback_quota(callback_quota);
    ctx.set_deadline(deadline);
    while (!stop.load(std::memory_order_relaxed) &&
           (enough == nullptr || !enough->load())) {
      const size_t m = dispenser.fetch_add(1, std::memory_order_relaxed);
      if (m >= plan.num_morsels) break;
      const size_t page_begin = m * plan.morsel_pages;
      const size_t page_end =
          std::min(plan.pages.size(), page_begin + plan.morsel_pages);
      Status s = fn(m, page_begin, page_end, &worker_heap, &ctx);
      if (!s.ok()) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (first_error.ok()) first_error = std::move(s);
        stop.store(true, std::memory_order_relaxed);
        break;
      }
    }
  };

  if (plan.num_workers == 1) {
    worker();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(plan.num_workers);
    for (size_t w = 0; w < plan.num_workers; ++w) threads.emplace_back(worker);
    for (std::thread& t : threads) t.join();
  }
  return first_error;
}

/// Scans one morsel batch-at-a-time through the shared record loop (the
/// predicate is applied inside it; UDF predicates cross once per batch)
/// and hands each non-empty batch of rows that pass to `on_batch`. With
/// `limit` >= 0 the morsel stops once it has produced `limit` rows; it
/// also stops as soon as `*enough` is set.
Status ScanMorselBatches(
    TableHeap* heap, const std::vector<PageId>& pages, size_t page_begin,
    size_t page_end, size_t batch_size, const ScanSpec* scan, UdfContext* ctx,
    const QueryDeadline* deadline, int64_t limit,
    const std::atomic<bool>* enough,
    const std::function<Status(std::vector<Tuple>*)>& on_batch) {
  const size_t batch_cap = batch_size > 0 ? batch_size : 1;
  HeapScan records(heap->ScanPages(pages, page_begin, page_end), scan, ctx);
  std::vector<Tuple> batch;
  batch.reserve(batch_cap);
  size_t produced = 0;
  while (enough == nullptr || !enough->load()) {
    size_t want = batch_cap;
    if (limit >= 0) {
      if (produced >= static_cast<size_t>(limit)) break;
      want = std::min(want, static_cast<size_t>(limit) - produced);
    }
    // Per-batch cancellation point: an expired deadline stops this worker
    // before the next round of (potentially expensive) UDF evaluation.
    JAGUAR_RETURN_IF_ERROR(CheckDeadline(deadline));
    batch.clear();
    JAGUAR_ASSIGN_OR_RETURN(size_t read,
                            records.Read(want, /*batched=*/true, &batch));
    if (read == 0) break;
    if (batch.empty()) continue;
    produced += batch.size();
    JAGUAR_RETURN_IF_ERROR(on_batch(&batch));
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<Tuple>> RunParallelScan(const ParallelScanSpec& spec) {
  if (spec.engine == nullptr || spec.scan == nullptr ||
      spec.out_exprs == nullptr) {
    return InvalidArgument("parallel scan spec is missing engine or exprs");
  }
  JAGUAR_ASSIGN_OR_RETURN(
      MorselPlan plan, PlanMorsels(spec.engine, spec.first_page,
                                   spec.morsel_pages, spec.num_workers));

  // One result slot per morsel: merging in morsel index order reproduces
  // the serial scan order exactly, whichever worker ran which morsel.
  // Under LIMIT, the completed morsel prefix (every morsel before the first
  // unfinished one) is tracked; once it holds `limit` rows the merge can
  // no longer reach past it, so dispensing stops and morsels still running
  // beyond it give up.
  std::vector<std::vector<Tuple>> morsel_results(plan.num_morsels);
  std::atomic<bool> enough{false};
  std::mutex prefix_mutex;
  std::vector<char> finished(plan.num_morsels, 0);
  size_t prefix = 0;
  size_t prefix_rows = 0;
  const std::atomic<bool>* stop_flag = spec.limit >= 0 ? &enough : nullptr;
  JAGUAR_RETURN_IF_ERROR(DriveMorsels(
      spec.engine, spec.first_page, plan, spec.callback_handler,
      spec.callback_quota, spec.deadline,
      [&](size_t m, size_t page_begin, size_t page_end, TableHeap* heap,
          UdfContext* ctx) -> Status {
        std::vector<Tuple>* out = &morsel_results[m];
        JAGUAR_RETURN_IF_ERROR(ScanMorselBatches(
            heap, plan.pages, page_begin, page_end, spec.batch_size,
            spec.scan, ctx, spec.deadline, spec.limit, stop_flag,
            [&](std::vector<Tuple>* survivors) -> Status {
              std::vector<std::vector<Value>> columns;
              columns.reserve(spec.out_exprs->size());
              for (const BoundExprPtr& e : *spec.out_exprs) {
                JAGUAR_ASSIGN_OR_RETURN(std::vector<Value> column,
                                        EvalBatch(*e, *survivors, ctx));
                columns.push_back(std::move(column));
              }
              for (size_t row = 0; row < survivors->size(); ++row) {
                std::vector<Value> values;
                values.reserve(columns.size());
                for (std::vector<Value>& column : columns) {
                  values.push_back(std::move(column[row]));
                }
                out->push_back(Tuple(std::move(values)));
              }
              return Status::OK();
            }));
        if (stop_flag == nullptr) return Status::OK();
        std::lock_guard<std::mutex> lock(prefix_mutex);
        // A morsel cut short by `enough` lies past the covered prefix.
        if (enough.load()) return Status::OK();
        finished[m] = 1;
        while (prefix < plan.num_morsels && finished[prefix]) {
          prefix_rows += morsel_results[prefix++].size();
        }
        if (prefix_rows >= static_cast<size_t>(spec.limit)) {
          enough.store(true);
        }
        return Status::OK();
      },
      stop_flag));

  std::vector<Tuple> rows;
  size_t total = 0;
  for (const std::vector<Tuple>& chunk : morsel_results) total += chunk.size();
  rows.reserve(total);
  for (std::vector<Tuple>& chunk : morsel_results) {
    if (spec.limit >= 0 && rows.size() >= static_cast<size_t>(spec.limit)) {
      break;
    }
    for (Tuple& t : chunk) {
      if (spec.limit >= 0 && rows.size() >= static_cast<size_t>(spec.limit)) {
        break;
      }
      rows.push_back(std::move(t));
    }
  }
  Metrics()->tuples->Add(rows.size());
  return rows;
}

Result<std::vector<Tuple>> RunParallelAggregate(
    const ParallelAggregateSpec& spec) {
  if (spec.engine == nullptr || spec.scan == nullptr || spec.plan == nullptr) {
    return InvalidArgument("parallel aggregate spec is missing engine or plan");
  }
  JAGUAR_ASSIGN_OR_RETURN(
      MorselPlan plan, PlanMorsels(spec.engine, spec.first_page,
                                   spec.morsel_pages, spec.num_workers));
  Metrics()->agg_queries->Add();
  Metrics()->agg_parallel_queries->Add();

  // One partial aggregator per morsel. Merging the partials in morsel
  // index order keeps min/max tie-breaks and float-sum addition order
  // deterministic regardless of worker scheduling.
  std::vector<std::unique_ptr<HashAggregator>> partials(plan.num_morsels);
  JAGUAR_RETURN_IF_ERROR(DriveMorsels(
      spec.engine, spec.first_page, plan, spec.callback_handler,
      spec.callback_quota, spec.deadline,
      [&](size_t m, size_t page_begin, size_t page_end, TableHeap* heap,
          UdfContext* ctx) -> Status {
        auto partial = std::make_unique<HashAggregator>(spec.plan);
        JAGUAR_RETURN_IF_ERROR(ScanMorselBatches(
            heap, plan.pages, page_begin, page_end, spec.batch_size,
            spec.scan, ctx, spec.deadline, /*limit=*/-1, nullptr,
            [&](std::vector<Tuple>* survivors) -> Status {
              return partial->ConsumeBatch(*survivors, ctx);
            }));
        partials[m] = std::move(partial);
        return Status::OK();
      }));

  HashAggregator merged(spec.plan);
  for (std::unique_ptr<HashAggregator>& partial : partials) {
    JAGUAR_RETURN_IF_ERROR(merged.MergeFrom(partial.get(), spec.deadline));
  }
  return merged.Finalize(spec.deadline);
}

Result<std::vector<Tuple>> RunParallelSort(const ParallelSortSpec& spec) {
  if (spec.engine == nullptr || spec.scan == nullptr ||
      spec.order_key == nullptr || spec.out_exprs == nullptr) {
    return InvalidArgument("parallel sort spec is missing engine or exprs");
  }
  JAGUAR_ASSIGN_OR_RETURN(
      MorselPlan plan, PlanMorsels(spec.engine, spec.first_page,
                                   spec.morsel_pages, spec.num_workers));
  Metrics()->sort_queries->Add();
  Metrics()->sort_parallel_queries->Add();
  if (spec.limit >= 0) Metrics()->sort_topk_queries->Add();

  // One sorted run per morsel (run id = morsel index, so tie-breaks match
  // serial scan order); each run is top-k-bounded when LIMIT is set.
  std::vector<std::vector<Sorter::Entry>> runs(plan.num_morsels);
  JAGUAR_RETURN_IF_ERROR(DriveMorsels(
      spec.engine, spec.first_page, plan, spec.callback_handler,
      spec.callback_quota, spec.deadline,
      [&](size_t m, size_t page_begin, size_t page_end, TableHeap* heap,
          UdfContext* ctx) -> Status {
        Sorter sorter(spec.descending, spec.limit, /*run_id=*/m);
        JAGUAR_RETURN_IF_ERROR(ScanMorselBatches(
            heap, plan.pages, page_begin, page_end, spec.batch_size,
            spec.scan, ctx, spec.deadline, /*limit=*/-1, nullptr,
            [&](std::vector<Tuple>* survivors) -> Status {
              return SortConsumeBatch(&sorter, *spec.order_key,
                                      *spec.out_exprs, *survivors, ctx);
            }));
        JAGUAR_RETURN_IF_ERROR(sorter.Finish());
        runs[m] = sorter.TakeEntries();
        return Status::OK();
      }));

  return Sorter::MergeRuns(std::move(runs), spec.descending, spec.limit,
                           spec.deadline);
}

}  // namespace exec
}  // namespace jaguar
