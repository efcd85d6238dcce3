#include "exec/parallel.h"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "obs/metrics.h"
#include "storage/table_heap.h"

namespace jaguar {
namespace exec {

namespace {

/// The counter `name`. Each call site keeps it in a function-local static,
/// so a counter is registered only once a plan bumps it: every registered
/// counter costs each statement's metrics snapshot (Database::Execute).
obs::Counter* Counter(const char* name) {
  return obs::MetricsRegistry::Global()->GetCounter(name);
}

bool Collects(const Pipeline& p) {
  return p.aggregate == nullptr && p.order_key == nullptr;
}

/// What one stream leaves behind: its sink.
struct Stream {
  std::vector<Tuple> rows;                  ///< collect
  std::unique_ptr<HashAggregator> partial;  ///< partial aggregate
  std::optional<Sorter> sorter;             ///< sorted run
};

/// Runs one stream — the whole source, or one morsel — through the record
/// loop into a new sink in `*out`. `serial` bumps the `exec.<op>.tuples`
/// counters.
Status RunStream(const Pipeline& p, TableHeap::Iterator cursor,
                 UdfContext* ctx, bool serial, size_t run_id, Stream* out) {
  const bool collect = Collects(p);
  if (p.aggregate != nullptr) {
    out->partial = std::make_unique<HashAggregator>(p.aggregate);
  } else if (p.order_key != nullptr) {
    out->sorter.emplace(p.descending, p.limit, run_id);
  }
  // The sink's expressions, evaluated here for every sink: the aggregate's
  // inputs, or the sort key ahead of the projection.
  std::vector<const BoundExpr*> exprs;
  if (p.aggregate != nullptr) {
    exprs = p.aggregate->Inputs();
  } else {
    if (p.order_key != nullptr) exprs.push_back(p.order_key);
    if (p.out_exprs != nullptr) {
      for (const BoundExprPtr& e : *p.out_exprs) exprs.push_back(e.get());
    }
  }
  const size_t width = exprs.size();
  const size_t key_columns = p.order_key != nullptr ? 1 : 0;
  const size_t per_read = p.batched ? std::max<size_t>(1, p.batch_size) : 1;
  const bool limited = collect && p.limit >= 0;
  HeapScan scan(std::move(cursor), p.scan, ctx);
  Evaluator eval;
  std::vector<Tuple> rows;
  std::vector<Value> values;
  while (true) {
    size_t want = per_read;
    if (limited) {
      const size_t limit = static_cast<size_t>(p.limit);
      if (out->rows.size() >= limit) break;
      // Read no record past the limit: its UDFs would run for nothing.
      want = std::min(want, limit - out->rows.size());
    }
    // Cancellation point before every read, so an expired deadline stops
    // the stream before its next round of UDF calls.
    JAGUAR_RETURN_IF_ERROR(ctx->CheckDeadline());
    rows.clear();
    JAGUAR_ASSIGN_OR_RETURN(size_t read, scan.Read(want, p.batched, &rows));
    if (serial && p.pick == nullptr) {
      static obs::Counter* scanned = Counter("exec.seqscan.tuples");
      scanned->Add(read);
    }
    if (serial && p.scan->predicate != nullptr) {
      static obs::Counter* filtered = Counter("exec.filter.tuples");
      filtered->Add(rows.size());
    }
    if (rows.empty()) break;  // end of the source
    JAGUAR_RETURN_IF_ERROR(eval.EvalRows(exprs, rows.data(), rows.size(),
                                         p.batched, ctx, &values));
    if (out->partial != nullptr) {
      JAGUAR_RETURN_IF_ERROR(out->partial->Consume(&values, rows.size()));
      continue;
    }
    for (size_t row = 0; row < rows.size(); ++row) {
      Value* first = values.data() + row * width;
      Tuple projected(std::vector<Value>(
          std::make_move_iterator(first + key_columns),
          std::make_move_iterator(first + width)));
      if (out->sorter.has_value()) {
        out->sorter->Add(std::move(first[0]), std::move(projected));
      } else {
        out->rows.push_back(std::move(projected));
      }
    }
    if (serial && collect) {
      static obs::Counter* project_tuples = Counter("exec.project.tuples");
      project_tuples->Add(rows.size());
    }
    if (serial && limited) {
      static obs::Counter* limit_tuples = Counter("exec.limit.tuples");
      limit_tuples->Add(rows.size());
    }
  }
  return out->sorter.has_value() ? out->sorter->Finish() : Status::OK();
}

/// The page-chain split of a parallel plan.
struct MorselPlan {
  std::vector<PageId> pages;
  size_t num_morsels = 0;
  size_t num_workers = 1;
};

Result<MorselPlan> PlanMorsels(StorageEngine* engine, PageId first_page,
                               size_t num_workers) {
  MorselPlan plan;
  TableHeap heap(engine, first_page);
  JAGUAR_ASSIGN_OR_RETURN(plan.pages, heap.ListPages());
  plan.num_morsels = (plan.pages.size() + kMorselPages - 1) / kMorselPages;
  // Every worker's cursor may pin kMaxPins frames at once and the pool
  // returns ResourceExhausted rather than wait for a frame, so run no more
  // workers than the pool can pin for, keeping one frame spare for a fetch
  // outside the cursors (a UDF callback's, say).
  const size_t capacity = engine->buffer_pool()->capacity();
  const size_t pinnable =
      capacity > 0 ? (capacity - 1) / TableHeap::Iterator::kMaxPins : 0;
  plan.num_workers = std::max<size_t>(
      1, std::min({num_workers, plan.num_morsels, pinnable}));
  return plan;
}

/// Runs every morsel of `plan` as a stream of its own, `(*streams)[m]` for
/// morsel m, on workers pulling morsel indices from an atomic dispenser.
/// The first error wins and cancels the remaining morsels.
Status RunMorsels(const Pipeline& p, const MorselPlan& plan,
                  std::vector<Stream>* streams) {
  static obs::Counter* queries = Counter("exec.parallel.queries");
  static obs::Counter* workers = Counter("exec.parallel.workers");
  static obs::Counter* morsels = Counter("exec.parallel.morsels");
  queries->Add();
  workers->Add(plan.num_workers);
  morsels->Add(plan.num_morsels);
  streams->resize(plan.num_morsels);

  std::atomic<size_t> dispenser{0};
  std::atomic<bool> stop{false};
  std::mutex error_mutex;
  Status first_error;
  auto worker = [&] {
    // Per-worker cursor and callback context; everything else the worker
    // touches (buffer pool, runners, metrics) is shared and thread-safe.
    TableHeap heap(p.engine, p.first_page);
    UdfContext ctx = *p.ctx;
    while (!stop.load(std::memory_order_relaxed)) {
      const size_t m = dispenser.fetch_add(1, std::memory_order_relaxed);
      if (m >= plan.num_morsels) break;
      const size_t begin = m * kMorselPages;
      const size_t end = std::min(plan.pages.size(), begin + kMorselPages);
      Status s = RunStream(p, heap.ScanPages(plan.pages, begin, end), &ctx,
                           /*serial=*/false, /*run_id=*/m, &(*streams)[m]);
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

/// Combines the streams' sinks in stream order. A serial plan's one stream
/// is taken as is: no merge.
Result<std::vector<Tuple>> Combine(const Pipeline& p, bool parallel,
                                   std::vector<Stream>* streams) {
  const QueryDeadline* deadline = p.ctx->deadline();
  if (p.aggregate != nullptr) {
    if (!parallel) return (*streams)[0].partial->Finalize(deadline);
    HashAggregator merged(p.aggregate);
    for (Stream& s : *streams) {
      JAGUAR_RETURN_IF_ERROR(merged.MergeFrom(s.partial.get(), deadline));
    }
    return merged.Finalize(deadline);
  }
  if (p.order_key != nullptr) {
    if (!parallel) return (*streams)[0].sorter->TakeRows();
    std::vector<std::vector<Sorter::Entry>> runs;
    runs.reserve(streams->size());
    for (Stream& s : *streams) runs.push_back(s.sorter->TakeEntries());
    return Sorter::MergeRuns(std::move(runs), p.descending, p.limit,
                             deadline);
  }
  if (!parallel) return std::move((*streams)[0].rows);
  std::vector<Tuple> rows;
  for (Stream& s : *streams) {
    std::move(s.rows.begin(), s.rows.end(), std::back_inserter(rows));
  }
  static obs::Counter* tuples = Counter("exec.parallel.tuples");
  tuples->Add(rows.size());
  return rows;
}

}  // namespace

Result<std::vector<Tuple>> RunPipeline(const Pipeline& p) {
  // A collect sink under LIMIT stops at its first `limit` rows in scan
  // order; only one stream knows where that is without reading past it.
  const bool parallel = p.batched && p.num_workers > 1 && p.pick == nullptr &&
                        !(Collects(p) && p.limit >= 0);
  std::optional<MorselPlan> morsels;
  if (parallel) {
    JAGUAR_ASSIGN_OR_RETURN(morsels,
                            PlanMorsels(p.engine, p.first_page, p.num_workers));
  }
  if (p.aggregate != nullptr) {
    static obs::Counter* queries = Counter("exec.agg.queries");
    static obs::Counter* parallel_queries =
        Counter("exec.agg.parallel_queries");
    queries->Add();
    if (parallel) parallel_queries->Add();
  } else if (p.order_key != nullptr) {
    static obs::Counter* queries = Counter("exec.sort.queries");
    static obs::Counter* parallel_queries =
        Counter("exec.sort.parallel_queries");
    static obs::Counter* topk_queries = Counter("exec.sort.topk_queries");
    queries->Add();
    if (parallel) parallel_queries->Add();
    if (p.limit >= 0) topk_queries->Add();
  }

  std::vector<Stream> streams;
  if (parallel) {
    JAGUAR_RETURN_IF_ERROR(RunMorsels(p, *morsels, &streams));
  } else {
    // LIMIT 0 collects nothing, so it opens no source (probes no index).
    if (Collects(p) && p.limit == 0) return std::vector<Tuple>();
    streams.resize(1);
    TableHeap heap(p.engine, p.first_page);
    std::vector<RecordId> rids;
    JAGUAR_ASSIGN_OR_RETURN(
        TableHeap::Iterator cursor,
        OpenSource(&heap, p.pick, /*chain_order=*/p.aggregate != nullptr,
                   &rids));
    JAGUAR_RETURN_IF_ERROR(RunStream(p, std::move(cursor), p.ctx,
                                     /*serial=*/true, /*run_id=*/0,
                                     &streams[0]));
  }
  return Combine(p, parallel, &streams);
}

}  // namespace exec
}  // namespace jaguar
