#include "engine/database.h"

#include <algorithm>

#include "common/bytes.h"
#include "common/string_util.h"
#include "exec/aggregate.h"
#include "exec/expression.h"
#include "exec/index_scan.h"
#include "exec/operators.h"
#include "exec/parallel.h"
#include "exec/sort.h"
#include "index/btree.h"
#include "sql/parser.h"
#include "udf/builtins.h"
#include "udf/isolated_udf_runner.h"
#include "udf/jvm_udf_runner.h"
#include "udf/sfi_udf_runner.h"
#include "udf/generic_udf.h"

namespace jaguar {

namespace {
/// Hidden catalog table backing the LOB store.
constexpr char kLobTableName[] = "__lobs";

obs::Counter* DeadlineQueries() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global()->GetCounter("exec.deadline.queries");
  return counter;
}

obs::Counter* DeadlineExceededQueries() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global()->GetCounter("exec.deadline.exceeded");
  return counter;
}

/// Collects the rows of `heap` that pass `predicate` (all rows when null),
/// fully decoded, with their record ids: DELETE and UPDATE gather every
/// target row before changing any, so no record view is held across a heap
/// write. With an index `pick` only its survivors are read, and
/// `predicate` is the residual; either way rows come in heap-chain order,
/// so the changes apply in the same order whichever path found them. Rows
/// that fail get only the predicate's columns decoded.
Status CollectRows(TableHeap* heap, const Schema& schema,
                   const std::optional<exec::IndexPick>& pick,
                   const exec::BoundExpr* predicate, UdfContext* ctx,
                   const QueryDeadline& deadline, std::vector<Tuple>* rows,
                   std::vector<RecordId>* rids) {
  ColumnMask every;
  for (size_t i = 0; i < schema.num_columns(); ++i) every.Add(i);
  const exec::ScanSpec spec = exec::ScanSpec::Make(predicate, every);
  std::vector<RecordId> listed;
  JAGUAR_ASSIGN_OR_RETURN(
      TableHeap::Iterator cursor,
      exec::OpenSource(heap, pick.has_value() ? &*pick : nullptr,
                       /*chain_order=*/true, &listed));
  exec::HeapScan scan(std::move(cursor), &spec, ctx);
  return scan.ForEach(&deadline, [&](Tuple* t, RecordId rid) -> Status {
    rows->push_back(std::move(*t));
    rids->push_back(rid);
    return Status::OK();
  });
}

/// Inserts the key of every row of `table` into the empty index `idx`,
/// decoding only the key column. `deadline` may be null.
Status FillIndex(StorageEngine* engine, const IndexInfo* idx,
                 const TableInfo* table, const QueryDeadline* deadline) {
  ColumnMask key_column;
  key_column.Add(idx->column_index);
  const exec::ScanSpec spec = exec::ScanSpec::Make(nullptr, key_column);
  BTree tree(engine, idx->root);
  TableHeap heap(engine, table->first_page);
  exec::HeapScan scan(heap.Scan(), &spec, /*ctx=*/nullptr);
  return scan.ForEach(deadline, [&](Tuple* t, RecordId rid) -> Status {
    const Value& key = t->value(idx->column_index);
    if (key.is_null()) return Status::OK();  // NULL keys are never stored
    return tree.Insert(key, rid);
  });
}
}  // namespace

// ---------------------------------------------------------------------------
// LobStore
// ---------------------------------------------------------------------------

LobStore::LobStore(StorageEngine* engine, Catalog* catalog)
    : engine_(engine), catalog_(catalog) {}

Status LobStore::Init() {
  Result<const TableInfo*> info = catalog_->GetTable(kLobTableName);
  if (!info.ok()) {
    if (!info.status().IsNotFound()) return info.status();
    Schema schema({{"id", TypeId::kInt}, {"data", TypeId::kBytes}});
    JAGUAR_RETURN_IF_ERROR(catalog_->CreateTable(kLobTableName, schema));
    JAGUAR_ASSIGN_OR_RETURN(info, catalog_->GetTable(kLobTableName));
  }
  heap_root_ = (*info)->first_page;
  // Build the handle index; only the id column is decoded.
  ColumnMask id_column;
  id_column.Add(0);
  const exec::ScanSpec spec = exec::ScanSpec::Make(nullptr, id_column);
  TableHeap heap(engine_, heap_root_);
  exec::HeapScan scan(heap.Scan(), &spec, /*ctx=*/nullptr);
  return scan.ForEach(nullptr, [&](Tuple* t, RecordId rid) -> Status {
    if (t->num_values() != 2 || t->value(0).type() != TypeId::kInt) {
      return Corruption("malformed LOB record");
    }
    int64_t id = t->value(0).AsInt();
    index_[id] = rid;
    next_id_ = std::max(next_id_, id + 1);
    return Status::OK();
  });
}

Result<int64_t> LobStore::Store(const std::vector<uint8_t>& data) {
  int64_t id = next_id_++;
  Tuple t({Value::Int(id), Value::Bytes(data)});
  TableHeap heap(engine_, heap_root_);
  JAGUAR_ASSIGN_OR_RETURN(RecordId rid, heap.Insert(Slice(t.Serialize())));
  index_[id] = rid;
  return id;
}

Result<std::vector<uint8_t>> LobStore::Fetch(int64_t handle, uint64_t offset,
                                             uint64_t len) {
  JAGUAR_ASSIGN_OR_RETURN(Tuple t, Read(handle));
  const std::vector<uint8_t>& data = t.value(1).AsBytes();
  if (offset >= data.size()) return std::vector<uint8_t>();
  uint64_t end = std::min<uint64_t>(data.size(), offset + len);
  return std::vector<uint8_t>(data.begin() + offset, data.begin() + end);
}

Result<uint64_t> LobStore::Size(int64_t handle) {
  JAGUAR_ASSIGN_OR_RETURN(Tuple t, Read(handle));
  return t.value(1).AsBytes().size();
}

Result<Tuple> LobStore::Read(int64_t handle) {
  auto it = index_.find(handle);
  if (it == index_.end()) {
    return NotFound(StringPrintf("no LOB with handle %lld",
                                 static_cast<long long>(handle)));
  }
  // Read in place, decoding only the data column.
  ColumnMask data_column;
  data_column.Add(1);
  const exec::ScanSpec spec = exec::ScanSpec::Make(nullptr, data_column);
  TableHeap heap(engine_, heap_root_);
  const std::vector<RecordId> rids = {it->second};
  exec::HeapScan scan(heap.Fetch(rids), &spec, /*ctx=*/nullptr);
  std::vector<Tuple> rows;
  JAGUAR_RETURN_IF_ERROR(scan.Read(1, /*batched=*/false, &rows).status());
  if (rows.size() != 1 || rows[0].num_values() != 2 ||
      rows[0].value(1).type() != TypeId::kBytes) {
    return Corruption("malformed LOB record");
  }
  return std::move(rows[0]);
}

// ---------------------------------------------------------------------------
// Database
// ---------------------------------------------------------------------------

Database::~Database() {
  if (storage_ != nullptr) storage_->Close().ok();
}

Result<std::unique_ptr<Database>> Database::Open(
    const std::string& path, const DatabaseOptions& options) {
  RegisterBuiltinUdfs();
  RegisterGenericUdfs();
  auto db = std::unique_ptr<Database>(new Database());
  db->options_ = options;
  wal::WalOptions wal_options;
  wal_options.enabled = options.wal_enabled;
  wal_options.fsync_on_commit = options.wal_fsync;
  wal_options.checkpoint_bytes = options.wal_checkpoint_bytes;
  BufferPoolConfig pool_config;
  pool_config.shards = options.buffer_pool_shards;
  pool_config.workers_hint = std::max<size_t>(1, options.num_workers);
  pool_config.readahead_pages = options.readahead_pages;
  pool_config.bg_writer = options.bg_writer;
  JAGUAR_ASSIGN_OR_RETURN(
      db->storage_,
      StorageEngine::Open(path, options.buffer_pool_pages, wal_options,
                          pool_config));
  JAGUAR_ASSIGN_OR_RETURN(db->catalog_, Catalog::Open(db->storage_.get()));

  // One JagVM per server, created at startup (Section 4.2: "a single JVM is
  // created when the database server starts up, and is used until shutdown").
  jvm::JvmOptions vm_options;
  vm_options.enable_jit = options.udf_jit;
  vm_options.jit_budget_checks = options.udf_jit_budget_checks;
  db->vm_ = std::make_unique<jvm::Jvm>(vm_options);
  JAGUAR_RETURN_IF_ERROR(InstallJaguarNatives(db->vm_.get()));

  db->udf_manager_ = std::make_unique<UdfManager>(db->catalog_.get());
  db->udf_manager_->set_memo_capacity(options.udf_memo_entries);
  db->udf_manager_->set_quarantine(&db->quarantine_);
  jvm::ResourceLimits limits;
  limits.instruction_budget = options.udf_instruction_budget;
  limits.heap_quota_bytes = options.udf_heap_quota_bytes;
  db->udf_manager_->SetRunnerFactory(
      UdfLanguage::kJJava, MakeJvmRunnerFactory(db->vm_.get(), limits));
  // Isolated designs get one executor process per parallel worker, so the
  // morsel workers never serialize on a single child.
  const size_t pool_size = std::max<size_t>(1, options.num_workers);
  JAGUAR_ASSIGN_OR_RETURN(ipc::Transport transport,
                          ipc::ParseTransport(options.ipc_transport));
  db->udf_manager_->SetRunnerFactory(
      UdfLanguage::kNativeIsolated,
      MakeIsolatedRunnerFactory(options.isolated_shm_bytes, pool_size,
                                transport));
  db->udf_manager_->SetRunnerFactory(UdfLanguage::kNativeSfi,
                                     MakeSfiRunnerFactory());
  db->udf_manager_->SetRunnerFactory(
      UdfLanguage::kJJavaIsolated,
      MakeIsolatedJvmRunnerFactory(limits, options.isolated_shm_bytes,
                                   pool_size, transport));

  db->lobs_ = std::make_unique<LobStore>(db->storage_.get(), db->catalog_.get());
  JAGUAR_RETURN_IF_ERROR(db->lobs_->Init());

  // After *crash* recovery, re-derive every secondary index from its heap:
  // the redo-only WAL replays whole page images, but a crash mid-statement
  // can persist an index state that reflects only part of a structure
  // modification relative to the replayed heap. A clean reopen (recovery
  // scanned just the checkpoint frame, replayed nothing) skips this.
  const wal::RecoveryStats& rs = db->storage_->recovery_stats();
  if (rs.records_scanned > 1 || rs.pages_replayed > 0) {
    JAGUAR_RETURN_IF_ERROR(db->RebuildIndexesAfterCrash());
  }
  return db;
}

Result<QueryResult> Database::Execute(const std::string& sql_text) {
  JAGUAR_ASSIGN_OR_RETURN(sql::Statement stmt, sql::Parse(sql_text));
  // Per-query cancellation token: session `SET TIMEOUT` override wins over
  // the open-time default; 0 in both places means no deadline.
  const int64_t timeout_ms = session_timeout_ms_ > 0
                                 ? session_timeout_ms_
                                 : options_.query_timeout_ms;
  const QueryDeadline deadline = QueryDeadline::After(timeout_ms);
  if (deadline.active()) DeadlineQueries()->Add();
  // Bracket execution with registry snapshots so callers get the exact
  // boundary-crossing counts this statement caused (Figures 5/6/8 quantities)
  // without having to diff the global registry themselves.
  obs::MetricsSnapshot before = obs::MetricsRegistry::Global()->Snapshot();
  Result<QueryResult> result = ExecuteStatement(stmt, deadline);
  if (!result.ok() && result.status().IsDeadlineExceeded()) {
    DeadlineExceededQueries()->Add();
  }
  // Statement-level commit: a mutating statement is durable once Execute
  // returns OK. One Commit() covers every record the statement appended
  // (group commit), and the hook also auto-checkpoints a grown log.
  if (result.ok()) {
    switch (stmt.kind) {
      case sql::StatementKind::kCreateTable:
      case sql::StatementKind::kDropTable:
      case sql::StatementKind::kInsert:
      case sql::StatementKind::kDelete:
      case sql::StatementKind::kUpdate:
      case sql::StatementKind::kCreateIndex:
      case sql::StatementKind::kDropIndex:
        JAGUAR_RETURN_IF_ERROR(storage_->WalCommit());
        break;
      default:
        break;
    }
  }
  if (result.ok()) {
    result->metrics_delta =
        obs::SnapshotDelta(before, obs::MetricsRegistry::Global()->Snapshot());
  }
  return result;
}

Result<QueryResult> Database::ExecuteStatement(const sql::Statement& stmt,
                                               const QueryDeadline& deadline) {
  switch (stmt.kind) {
    case sql::StatementKind::kSelect:
      return RunSelect(stmt, deadline);
    case sql::StatementKind::kShowMetrics:
      return ExecuteShowMetrics(stmt);
    case sql::StatementKind::kCreateTable: {
      JAGUAR_RETURN_IF_ERROR(catalog_->CreateTable(stmt.create_table.table,
                                                   stmt.create_table.schema));
      QueryResult result;
      result.message = "Table " + stmt.create_table.table + " created";
      return result;
    }
    case sql::StatementKind::kInsert:
      return ExecuteInsert(stmt, deadline);
    case sql::StatementKind::kDelete:
      return ExecuteDelete(stmt, deadline);
    case sql::StatementKind::kUpdate:
      return ExecuteUpdate(stmt, deadline);
    case sql::StatementKind::kSetTimeout: {
      session_timeout_ms_ = stmt.set_timeout.timeout_ms;
      QueryResult result;
      result.message =
          session_timeout_ms_ > 0
              ? StringPrintf("query timeout set to %lld ms",
                             static_cast<long long>(session_timeout_ms_))
              : "query timeout override cleared";
      return result;
    }
    case sql::StatementKind::kCreateIndex:
      return ExecuteCreateIndex(stmt, deadline);
    case sql::StatementKind::kDropIndex:
      return ExecuteDropIndex(stmt);
    case sql::StatementKind::kDropTable: {
      if (EqualsIgnoreCase(stmt.drop_table.table, kLobTableName)) {
        return InvalidArgument("cannot drop the internal LOB table");
      }
      JAGUAR_RETURN_IF_ERROR(catalog_->DropTable(stmt.drop_table.table));
      QueryResult result;
      result.message = "Table " + stmt.drop_table.table + " dropped";
      return result;
    }
  }
  return Internal("unhandled statement kind");
}

Result<QueryResult> Database::ExecuteShowMetrics(const sql::Statement& stmt) {
  const std::string& prefix = stmt.show_metrics.like_prefix;
  QueryResult result;
  result.schema = Schema({{"metric", TypeId::kString},
                          {"value", TypeId::kString}});
  for (auto& [name, value] : obs::MetricsRegistry::Global()->Rows(prefix)) {
    result.rows.emplace_back(
        std::vector<Value>{Value::String(name), Value::String(value)});
  }
  return result;
}

Result<QueryResult> Database::RunSelect(const sql::Statement& stmt,
                                        const QueryDeadline& deadline) {
  const sql::SelectStmt& sel = stmt.select;
  JAGUAR_ASSIGN_OR_RETURN(const TableInfo* table, catalog_->GetTable(sel.table));
  UdfContext ctx(this);
  ctx.set_callback_quota(options_.udf_callback_quota);
  ctx.set_deadline(&deadline);

  // Bind once. An aggregate's ORDER BY sorts its output rows, so its key
  // binds against the select items and the sort runs after the pipeline;
  // any other ORDER BY makes the pipeline's sink a sorted run.
  const bool aggregate =
      exec::SelectHasAggregate(sel) || !sel.group_by.empty();
  std::optional<exec::AggregatePlan> agg;
  if (aggregate) {
    JAGUAR_ASSIGN_OR_RETURN(
        agg, exec::PlanAggregate(sel, table->schema, sel.table,
                                 sel.table_alias, udf_manager_.get()));
  }
  exec::BoundExprPtr predicate;
  if (sel.where != nullptr) {
    JAGUAR_ASSIGN_OR_RETURN(
        predicate, exec::Bind(*sel.where, table->schema, sel.table,
                              sel.table_alias, udf_manager_.get()));
  }
  std::vector<exec::BoundExprPtr> out_exprs;
  Schema out_schema;
  if (aggregate) {
    out_schema = agg->out_schema;
  } else {
    std::vector<Column> out_cols;
    for (const sql::SelectItem& item : sel.items) {
      if (item.is_star) {
        for (size_t i = 0; i < table->schema.num_columns(); ++i) {
          auto col = std::make_unique<exec::BoundExpr>();
          col->kind = exec::BoundExprKind::kColumn;
          col->column_index = i;
          col->result_type = table->schema.column(i).type;
          out_exprs.push_back(std::move(col));
          out_cols.push_back(table->schema.column(i));
        }
        continue;
      }
      JAGUAR_ASSIGN_OR_RETURN(
          exec::BoundExprPtr bound,
          exec::Bind(*item.expr, table->schema, sel.table, sel.table_alias,
                     udf_manager_.get()));
      std::string name =
          !item.alias.empty() ? item.alias : item.expr->ToString();
      out_cols.push_back({std::move(name), bound->result_type});
      out_exprs.push_back(std::move(bound));
    }
    out_schema = Schema(std::move(out_cols));
  }
  exec::BoundExprPtr order_key;
  if (sel.order_by != nullptr) {
    JAGUAR_ASSIGN_OR_RETURN(
        order_key,
        aggregate ? exec::BindAggregateOrderKey(sel, *agg, udf_manager_.get())
                  : exec::Bind(*sel.order_by, table->schema, sel.table,
                               sel.table_alias, udf_manager_.get()));
  }

  // The access path, then what the record loop decodes: the columns the
  // sink reads (nothing at all for COUNT(*)) besides the predicate's.
  const std::optional<exec::IndexPick> pick =
      ChooseAccessPath(table, &predicate);
  ColumnMask reads;
  if (aggregate) {
    for (const exec::BoundExpr* e : agg->Inputs()) {
      exec::CollectColumns(*e, &reads);
    }
  } else {
    for (const exec::BoundExprPtr& e : out_exprs) {
      exec::CollectColumns(*e, &reads);
    }
    if (order_key != nullptr) exec::CollectColumns(*order_key, &reads);
  }
  const exec::ScanSpec scan = exec::ScanSpec::Make(predicate.get(), reads);

  exec::Pipeline plan;
  plan.engine = storage_.get();
  plan.first_page = table->first_page;
  plan.pick = pick.has_value() ? &*pick : nullptr;
  plan.scan = &scan;
  plan.batched = options_.vectorized_execution;
  plan.batch_size = options_.batch_size;
  plan.num_workers = options_.num_workers;
  plan.ctx = &ctx;
  if (aggregate) {
    plan.aggregate = &*agg;
  } else {
    plan.order_key = order_key.get();
    plan.descending = sel.order_desc;
    plan.out_exprs = &out_exprs;
    plan.limit = sel.limit;
  }
  JAGUAR_ASSIGN_OR_RETURN(std::vector<Tuple> rows, exec::RunPipeline(plan));

  if (aggregate && order_key != nullptr) {
    JAGUAR_ASSIGN_OR_RETURN(
        rows, exec::SortRows(std::move(rows), *order_key, sel.order_desc,
                             sel.limit, &ctx, plan.batched, &deadline));
  } else if (aggregate && sel.limit >= 0 &&
             rows.size() > static_cast<size_t>(sel.limit)) {
    rows.resize(static_cast<size_t>(sel.limit));
  }
  QueryResult result;
  result.schema = std::move(out_schema);
  result.rows = std::move(rows);
  result.rows_affected = result.rows.size();
  return result;
}

Result<QueryResult> Database::ExecuteDelete(const sql::Statement& stmt,
                                            const QueryDeadline& deadline) {
  const sql::DeleteStmt& del = stmt.delete_stmt;
  if (EqualsIgnoreCase(del.table, kLobTableName)) {
    return InvalidArgument("cannot delete from the internal LOB table");
  }
  JAGUAR_ASSIGN_OR_RETURN(const TableInfo* table, catalog_->GetTable(del.table));
  UdfContext ctx(this);
  ctx.set_callback_quota(options_.udf_callback_quota);
  ctx.set_deadline(&deadline);

  exec::BoundExprPtr predicate;
  if (del.where != nullptr) {
    JAGUAR_ASSIGN_OR_RETURN(
        predicate, exec::Bind(*del.where, table->schema, del.table, "",
                              udf_manager_.get()));
  }

  // Collect matching records first, then delete: no record view is held
  // across a heap write. The tuples ride along so index maintenance can
  // re-derive the keys the deleted rows contributed.
  const std::optional<exec::IndexPick> pick =
      ChooseAccessPath(table, &predicate);
  TableHeap heap(storage_.get(), table->first_page);
  std::vector<Tuple> rows;
  std::vector<RecordId> rids;
  JAGUAR_RETURN_IF_ERROR(CollectRows(&heap, table->schema, pick,
                                     predicate.get(), &ctx, deadline, &rows,
                                     &rids));
  for (size_t i = 0; i < rows.size(); ++i) {
    JAGUAR_RETURN_IF_ERROR(heap.Delete(rids[i]));
    JAGUAR_RETURN_IF_ERROR(DeleteIndexEntries(table, rows[i], rids[i]));
  }
  QueryResult result;
  result.rows_affected = rows.size();
  result.message = StringPrintf("%zu row(s) deleted", rows.size());
  return result;
}

Result<QueryResult> Database::ExecuteUpdate(const sql::Statement& stmt,
                                            const QueryDeadline& deadline) {
  const sql::UpdateStmt& upd = stmt.update;
  if (EqualsIgnoreCase(upd.table, kLobTableName)) {
    return InvalidArgument("cannot update the internal LOB table");
  }
  JAGUAR_ASSIGN_OR_RETURN(const TableInfo* table, catalog_->GetTable(upd.table));
  UdfContext ctx(this);
  ctx.set_callback_quota(options_.udf_callback_quota);
  ctx.set_deadline(&deadline);

  exec::BoundExprPtr predicate;
  if (upd.where != nullptr) {
    JAGUAR_ASSIGN_OR_RETURN(
        predicate, exec::Bind(*upd.where, table->schema, upd.table, "",
                              udf_manager_.get()));
  }
  struct Assignment {
    size_t column;
    exec::BoundExprPtr value;
  };
  std::vector<Assignment> assignments;
  for (const auto& [col_name, value_expr] : upd.assignments) {
    Assignment a;
    JAGUAR_ASSIGN_OR_RETURN(a.column, table->schema.IndexOf(col_name));
    JAGUAR_ASSIGN_OR_RETURN(
        a.value, exec::Bind(*value_expr, table->schema, upd.table, "",
                            udf_manager_.get()));
    assignments.push_back(std::move(a));
  }

  // Phase 1: collect the target rows, then materialize their replacement
  // tuples (value expressions see the old row). Phase 2: delete + reinsert — updates may change record size,
  // and a collect-then-apply plan cannot revisit its own insertions. The old
  // tuple is retained so phase 2 can remove the index entries it contributed
  // before inserting the new row's entries under its new record id.
  struct PendingUpdate {
    RecordId rid;
    Tuple old_tuple;
    Tuple new_tuple;
  };
  const std::optional<exec::IndexPick> pick =
      ChooseAccessPath(table, &predicate);
  TableHeap heap(storage_.get(), table->first_page);
  std::vector<Tuple> rows;
  std::vector<RecordId> rids;
  JAGUAR_RETURN_IF_ERROR(CollectRows(&heap, table->schema, pick,
                                     predicate.get(), &ctx, deadline, &rows,
                                     &rids));
  std::vector<PendingUpdate> updates;
  updates.reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    JAGUAR_RETURN_IF_ERROR(deadline.Check());
    const Tuple& t = rows[i];
    std::vector<Value> values = t.values();
    for (const Assignment& a : assignments) {
      JAGUAR_ASSIGN_OR_RETURN(Value v, exec::Eval(*a.value, t, &ctx));
      if (table->schema.column(a.column).type == TypeId::kDouble &&
          v.type() == TypeId::kInt) {
        v = Value::Double(static_cast<double>(v.AsInt()));
      }
      values[a.column] = std::move(v);
    }
    Tuple updated(std::move(values));
    JAGUAR_RETURN_IF_ERROR(updated.CheckSchema(table->schema));
    JAGUAR_RETURN_IF_ERROR(ValidateIndexKeys(table, updated));
    updates.push_back({rids[i], std::move(rows[i]), std::move(updated)});
  }
  for (auto& u : updates) {
    JAGUAR_RETURN_IF_ERROR(heap.Delete(u.rid));
    JAGUAR_RETURN_IF_ERROR(DeleteIndexEntries(table, u.old_tuple, u.rid));
    JAGUAR_ASSIGN_OR_RETURN(RecordId new_rid,
                            heap.Insert(Slice(u.new_tuple.Serialize())));
    JAGUAR_RETURN_IF_ERROR(InsertIndexEntries(table, u.new_tuple, new_rid));
  }
  QueryResult result;
  result.rows_affected = updates.size();
  result.message = StringPrintf("%zu row(s) updated", updates.size());
  return result;
}

Result<QueryResult> Database::ExecuteInsert(const sql::Statement& stmt,
                                            const QueryDeadline& deadline) {
  const sql::InsertStmt& ins = stmt.insert;
  JAGUAR_ASSIGN_OR_RETURN(const TableInfo* table, catalog_->GetTable(ins.table));

  UdfContext ctx(this);
  ctx.set_deadline(&deadline);
  const Schema empty_schema;
  const Tuple empty_tuple;
  // Evaluate and validate every row before the first heap write, so a
  // statement that fails on any row leaves the table as it was.
  std::vector<Tuple> tuples;
  tuples.reserve(ins.rows.size());
  for (const std::vector<sql::ExprPtr>& row : ins.rows) {
    JAGUAR_RETURN_IF_ERROR(deadline.Check());
    std::vector<Value> values;
    values.reserve(row.size());
    for (const sql::ExprPtr& expr : row) {
      // VALUES expressions are constant: bound against an empty schema, so
      // column references fail; function calls (randbytes, ...) work.
      JAGUAR_ASSIGN_OR_RETURN(
          exec::BoundExprPtr bound,
          exec::Bind(*expr, empty_schema, ins.table, "", udf_manager_.get()));
      JAGUAR_ASSIGN_OR_RETURN(Value v, exec::Eval(*bound, empty_tuple, &ctx));
      values.push_back(std::move(v));
    }
    // Widen INT literals into DOUBLE columns before storing.
    if (values.size() == table->schema.num_columns()) {
      for (size_t i = 0; i < values.size(); ++i) {
        if (table->schema.column(i).type == TypeId::kDouble &&
            values[i].type() == TypeId::kInt) {
          values[i] = Value::Double(static_cast<double>(values[i].AsInt()));
        }
      }
    }
    Tuple t(std::move(values));
    JAGUAR_RETURN_IF_ERROR(t.CheckSchema(table->schema));
    JAGUAR_RETURN_IF_ERROR(ValidateIndexKeys(table, t));
    tuples.push_back(std::move(t));
  }
  TableHeap heap(storage_.get(), table->first_page);
  for (const Tuple& t : tuples) {
    JAGUAR_ASSIGN_OR_RETURN(RecordId rid, heap.Insert(Slice(t.Serialize())));
    JAGUAR_RETURN_IF_ERROR(InsertIndexEntries(table, t, rid));
  }
  QueryResult result;
  result.rows_affected = tuples.size();
  result.message = StringPrintf("%zu row(s) inserted", tuples.size());
  return result;
}

Result<QueryResult> Database::ExecuteCreateIndex(const sql::Statement& stmt,
                                                 const QueryDeadline& deadline) {
  const sql::CreateIndexStmt& ci = stmt.create_index;
  if (EqualsIgnoreCase(ci.table, kLobTableName)) {
    return InvalidArgument("cannot index the internal LOB table");
  }
  JAGUAR_RETURN_IF_ERROR(catalog_->CreateIndex(ci.index, ci.table, ci.column));
  JAGUAR_ASSIGN_OR_RETURN(const IndexInfo* idx, catalog_->GetIndex(ci.index));
  JAGUAR_ASSIGN_OR_RETURN(const TableInfo* table, catalog_->GetTable(ci.table));

  // Backfill from the existing heap. On failure the half-built index is
  // dropped (best effort) so a failed CREATE INDEX leaves no entry behind.
  Status backfill = FillIndex(storage_.get(), idx, table, &deadline);
  if (!backfill.ok()) {
    catalog_->DropIndex(ci.index).ok();
    return backfill;
  }
  QueryResult result;
  result.message = "Index " + ci.index + " created";
  return result;
}

Result<QueryResult> Database::ExecuteDropIndex(const sql::Statement& stmt) {
  JAGUAR_RETURN_IF_ERROR(catalog_->DropIndex(stmt.drop_index.index));
  QueryResult result;
  result.message = "Index " + stmt.drop_index.index + " dropped";
  return result;
}

std::optional<exec::IndexPick> Database::ChooseAccessPath(
    const TableInfo* table, exec::BoundExprPtr* predicate) const {
  std::vector<exec::IndexCandidate> candidates;
  for (const IndexInfo* idx : catalog_->IndexesForTable(table->name)) {
    candidates.push_back({idx->column_index, idx->root, idx->name});
  }
  return exec::PickIndexScan(predicate, candidates, table->schema);
}

Status Database::ValidateIndexKeys(const TableInfo* table,
                                   const Tuple& t) const {
  for (const IndexInfo* idx : catalog_->IndexesForTable(table->name)) {
    const Value& key = t.value(idx->column_index);
    if (key.is_null()) continue;
    BufferWriter w;
    key.WriteTo(&w);
    if (w.size() > BTree::kMaxKeyBytes) {
      return InvalidArgument(StringPrintf(
          "value for indexed column '%s' exceeds the %zu-byte index key limit",
          idx->column.c_str(), BTree::kMaxKeyBytes));
    }
  }
  return Status::OK();
}

Status Database::InsertIndexEntries(const TableInfo* table, const Tuple& t,
                                    RecordId rid) {
  for (const IndexInfo* idx : catalog_->IndexesForTable(table->name)) {
    const Value& key = t.value(idx->column_index);
    if (key.is_null()) continue;
    BTree tree(storage_.get(), idx->root);
    JAGUAR_RETURN_IF_ERROR(tree.Insert(key, rid));
  }
  return Status::OK();
}

Status Database::DeleteIndexEntries(const TableInfo* table, const Tuple& t,
                                    RecordId rid) {
  for (const IndexInfo* idx : catalog_->IndexesForTable(table->name)) {
    const Value& key = t.value(idx->column_index);
    if (key.is_null()) continue;
    BTree tree(storage_.get(), idx->root);
    JAGUAR_RETURN_IF_ERROR(tree.Delete(key, rid));
  }
  return Status::OK();
}

Status Database::RebuildIndexesAfterCrash() {
  bool any = false;
  for (const std::string& name : catalog_->ListIndexes()) {
    JAGUAR_ASSIGN_OR_RETURN(const IndexInfo* idx, catalog_->GetIndex(name));
    JAGUAR_ASSIGN_OR_RETURN(const TableInfo* table,
                            catalog_->GetTable(idx->table));
    JAGUAR_RETURN_IF_ERROR(BTree(storage_.get(), idx->root).Clear());
    JAGUAR_RETURN_IF_ERROR(
        FillIndex(storage_.get(), idx, table, /*deadline=*/nullptr));
    any = true;
  }
  // The rebuild itself is WAL-logged like any other mutation; commit it so
  // a crash during the *next* statement replays on top of sound indexes.
  if (any) JAGUAR_RETURN_IF_ERROR(storage_->WalCommit());
  return Status::OK();
}

Status Database::RegisterUdf(UdfInfo info) {
  // Untrusted JJava uploads are verified *at registration* — malformed or
  // ill-typed bytecode never reaches the catalog. Building a runner performs
  // parse + verify + link checks and validates the declared signature.
  if (info.language == UdfLanguage::kJJava ||
      info.language == UdfLanguage::kJJavaIsolated) {
    jvm::ResourceLimits limits;
    limits.instruction_budget = options_.udf_instruction_budget;
    limits.heap_quota_bytes = options_.udf_heap_quota_bytes;
    JAGUAR_RETURN_IF_ERROR(
        JvmUdfRunner::Create(vm_.get(), info, limits).status());
  }
  const std::string name = info.name;
  JAGUAR_RETURN_IF_ERROR(catalog_->RegisterUdf(std::move(info)));
  JAGUAR_RETURN_IF_ERROR(storage_->WalCommit());
  udf_manager_->InvalidateCache();
  // Re-registration is the operator's "I fixed it" signal: clear any
  // quarantine verdict and strike streak.
  quarantine_.Reset(name);
  return Status::OK();
}

Status Database::DropUdf(const std::string& name) {
  JAGUAR_RETURN_IF_ERROR(catalog_->DropUdf(name));
  JAGUAR_RETURN_IF_ERROR(storage_->WalCommit());
  udf_manager_->InvalidateCache();
  quarantine_.Reset(name);
  return Status::OK();
}

Result<int64_t> Database::StoreLob(const std::vector<uint8_t>& data) {
  JAGUAR_ASSIGN_OR_RETURN(int64_t handle, lobs_->Store(data));
  JAGUAR_RETURN_IF_ERROR(storage_->WalCommit());
  return handle;
}

Result<std::vector<uint8_t>> Database::FetchLob(int64_t handle,
                                                uint64_t offset, uint64_t len) {
  return lobs_->Fetch(handle, offset, len);
}

Result<int64_t> Database::Callback(int64_t kind, int64_t arg) {
  ++callbacks_served_;
  switch (kind) {
    case 0:
      // The paper's benchmark callback: no data moves, the server replies.
      return arg;
    case 1: {
      JAGUAR_ASSIGN_OR_RETURN(uint64_t size, lobs_->Size(arg));
      return static_cast<int64_t>(size);
    }
    default:
      return NotSupported(StringPrintf("unknown callback kind %lld",
                                       static_cast<long long>(kind)));
  }
}

Result<std::vector<uint8_t>> Database::FetchBytes(int64_t handle,
                                                  uint64_t offset,
                                                  uint64_t len) {
  ++callbacks_served_;
  return lobs_->Fetch(handle, offset, len);
}

Status Database::Flush() { return storage_->Checkpoint(); }

}  // namespace jaguar
