#include "udf/isolated_udf_runner.h"

#include "common/bytes.h"
#include "common/string_util.h"
#include "jvm/vm.h"
#include "obs/metrics.h"
#include "udf/jvm_udf_runner.h"

namespace jaguar {

namespace {

/// Shared-memory request messages that carried more than one argument row —
/// the direct count of Section 2.5 amortized crossings.
obs::Counter* BatchMessages() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global()->GetCounter("ipc.batch_messages");
  return c;
}

/// Chunks whose serialization overlapped the child's execution of the
/// previous chunk (the double-buffered IPC pipeline).
obs::Counter* PipelinedChunks() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global()->GetCounter("ipc.pipelined_chunks");
  return c;
}

/// Request chunks serialized directly into the shared-memory ring (no
/// intermediate request buffer).
obs::Counter* ZeroCopyBatches() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global()->GetCounter("ipc.ring.zero_copy_batches");
  return c;
}

/// Executor children SIGKILLed because their query's deadline passed while
/// they were still executing (the isolated designs' "stop button", Section 4).
obs::Counter* WatchdogKills() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global()->GetCounter("udf.watchdog.kills");
  return c;
}

Result<std::vector<Value>> RunChunkedBatch(
    ipc::RemoteExecutor* executor,
    const std::vector<std::vector<Value>>& args_batch, size_t header_bytes,
    size_t shm_capacity, UdfContext* ctx,
    const std::function<void(BufferWriter*)>& write_header);

/// Runs one chunked batch through a leased executor with the query deadline
/// (if any) armed on the lease's channel, then settles the lease:
///   - DeadlineExceeded: the child is still chewing on the UDF (or wedged) —
///     the watchdog SIGKILLs it via Discard and the pool respawns lazily.
///     Only this worker's lease dies; concurrent workers' leases are healthy.
///   - IoError: the child died on its own; discard as before.
///   - any other failure with a response still unread (a pipelined chunk
///     behind a failed one, a half-decoded result): the executor is out of
///     step with its child, so discard it too.
/// Shared by Designs 2 (IC++) and 4 (IJNI) — the two "kill the process"
/// cells of Table 1's security column.
Result<std::vector<Value>> RunGuardedBatch(
    ExecutorPool::Lease* lease,
    const std::vector<std::vector<Value>>& args_batch, size_t header_bytes,
    size_t shm_capacity, UdfContext* ctx,
    const std::function<void(BufferWriter*)>& write_header) {
  ipc::Channel* channel = lease->get()->channel();
  channel->set_parent_deadline(ctx != nullptr ? ctx->deadline() : nullptr);
  Result<std::vector<Value>> results = RunChunkedBatch(
      lease->get(), args_batch, header_bytes, shm_capacity, ctx, write_header);
  channel->set_parent_deadline(nullptr);
  if (!results.ok()) {
    if (results.status().IsDeadlineExceeded()) {
      WatchdogKills()->Add();
      lease->Discard();
    } else if (results.status().IsIoError() || lease->get()->in_flight() > 0) {
      lease->Discard();
    }
  }
  return results;
}

/// Bytes one argument row adds to a request payload (u32 arg count + each
/// value's wire encoding).
size_t ArgRowSerializedSize(const std::vector<Value>& args) {
  size_t bytes = 4;
  for (const Value& v : args) bytes += v.SerializedSize();
  return bytes;
}

/// Greedy chunking: the last row index (exclusive) after `begin` such that
/// the chunk's serialized request still fits the shared-memory segment.
/// Always includes at least one row — a single oversized row fails with
/// InvalidArgument, exactly as the scalar path always has.
size_t BatchChunkEnd(const std::vector<std::vector<Value>>& batch,
                     size_t begin, size_t header_bytes, size_t shm_capacity) {
  // Slack for the count prefix and the channel's own framing.
  constexpr size_t kSlack = 256;
  const size_t budget =
      shm_capacity > header_bytes + kSlack ? shm_capacity - header_bytes -
                                                 kSlack
                                           : 0;
  size_t end = begin;
  size_t used = 0;
  while (end < batch.size()) {
    const size_t row_bytes = ArgRowSerializedSize(batch[end]);
    if (end > begin && used + row_bytes > budget) break;
    used += row_bytes;
    ++end;
  }
  return end;
}

/// Decodes one count-prefixed result frame, appending its values to `out`.
/// A response arrives as one frame, or as several when one would exceed the
/// channel's payload limit; each must carry at least one of the `remaining`
/// values the request still owes. `payload` may be an in-place view into
/// the ring (values copy out as they decode).
Status DecodeResultFrame(Slice payload, size_t remaining,
                         std::vector<Value>* out) {
  BufferReader r(payload);
  JAGUAR_ASSIGN_OR_RETURN(uint32_t count, BatchCodec::ReadCount(&r));
  if (count == 0 || count > remaining) {
    return Corruption(StringPrintf(
        "executor returned %u results with %zu outstanding",
        static_cast<unsigned>(count), remaining));
  }
  for (uint32_t i = 0; i < count; ++i) {
    JAGUAR_ASSIGN_OR_RETURN(Value v, Value::ReadFrom(&r));
    out->push_back(std::move(v));
  }
  return Status::OK();
}

// Callback wire format (child → parent payloads):
//   op 0 (Callback):  u8 0 | i64 kind | i64 arg        reply: i64
//   op 1 (FetchBytes): u8 1 | i64 handle | u64 off | u64 len
//                                                      reply: len-prefixed
constexpr uint8_t kOpCallback = 0;
constexpr uint8_t kOpFetch = 1;

/// Child-side handler that forwards UDF callbacks to the parent process over
/// the channel (each callback is a full round trip — the cost Figure 8
/// shows dominating IC++).
///
/// The parent may have pipelined the *next* request behind the callback
/// reply (the to-child direction is FIFO), so the round trip must set aside
/// any kRequest frame it sees and keep waiting — the stash is drained by the
/// child loop's next receive.
class ForwardingCallbackHandler : public UdfCallbackHandler {
 public:
  explicit ForwardingCallbackHandler(ipc::Channel* channel)
      : channel_(channel) {}

  Result<int64_t> Callback(int64_t kind, int64_t arg) override {
    BufferWriter w;
    w.PutU8(kOpCallback);
    w.PutI64(kind);
    w.PutI64(arg);
    JAGUAR_ASSIGN_OR_RETURN(std::vector<uint8_t> reply, RoundTrip(w.AsSlice()));
    BufferReader r((Slice(reply)));
    return r.ReadI64();
  }

  Result<std::vector<uint8_t>> FetchBytes(int64_t handle, uint64_t offset,
                                          uint64_t len) override {
    BufferWriter w;
    w.PutU8(kOpFetch);
    w.PutI64(handle);
    w.PutU64(offset);
    w.PutU64(len);
    JAGUAR_ASSIGN_OR_RETURN(std::vector<uint8_t> reply, RoundTrip(w.AsSlice()));
    BufferReader r((Slice(reply)));
    JAGUAR_ASSIGN_OR_RETURN(Slice bytes, r.ReadLengthPrefixed());
    return bytes.ToVector();
  }

 private:
  Result<std::vector<uint8_t>> RoundTrip(Slice payload) {
    JAGUAR_RETURN_IF_ERROR(
        channel_->SendToParent(ipc::MsgType::kCallbackRequest, payload));
    while (true) {
      JAGUAR_ASSIGN_OR_RETURN(auto msg, channel_->ReceiveFreshInChild());
      if (msg.first == ipc::MsgType::kRequest) {
        // A pipelined next request overtook the callback reply; park it for
        // the child loop and keep waiting.
        channel_->StashInChild(msg.first, std::move(msg.second));
        continue;
      }
      if (msg.first == ipc::MsgType::kError) {
        return ipc::DecodeStatus(Slice(msg.second));
      }
      if (msg.first != ipc::MsgType::kCallbackReply) {
        return Internal("unexpected message type for callback reply");
      }
      return std::move(msg.second);
    }
  }

  ipc::Channel* channel_;
};

/// Parent-side bridge: decodes a child's callback payload and services it
/// through the invoking UdfContext (shared by Designs 2 and 4).
ipc::RemoteExecutor::CallbackHandler MakeParentCallbackBridge(
    UdfContext* ctx) {
  return [ctx](Slice payload) -> Result<std::vector<uint8_t>> {
    BufferReader r(payload);
    JAGUAR_ASSIGN_OR_RETURN(uint8_t op, r.ReadU8());
    if (op == kOpCallback) {
      JAGUAR_ASSIGN_OR_RETURN(int64_t kind, r.ReadI64());
      JAGUAR_ASSIGN_OR_RETURN(int64_t arg, r.ReadI64());
      JAGUAR_ASSIGN_OR_RETURN(int64_t result, ctx->Callback(kind, arg));
      BufferWriter reply;
      reply.PutI64(result);
      return reply.Release();
    }
    if (op == kOpFetch) {
      JAGUAR_ASSIGN_OR_RETURN(int64_t handle, r.ReadI64());
      JAGUAR_ASSIGN_OR_RETURN(uint64_t offset, r.ReadU64());
      JAGUAR_ASSIGN_OR_RETURN(uint64_t len, r.ReadU64());
      JAGUAR_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                              ctx->FetchBytes(handle, offset, len));
      BufferWriter reply;
      reply.PutLengthPrefixed(Slice(bytes));
      return reply.Release();
    }
    return Corruption("unknown callback op from executor child");
  };
}

/// One precomputed request chunk: rows [begin, end) and the exact serialized
/// request size (header + count prefix + rows).
struct ChunkPlan {
  size_t begin;
  size_t end;
  size_t len;
};

/// Serializes rows [c.begin, c.end) of `args_batch` through `w`, which backs
/// onto the chunk's reservation in the ring.
Status SerializeChunk(const ChunkPlan& c,
                      const std::vector<std::vector<Value>>& args_batch,
                      const std::function<void(BufferWriter*)>& write_header,
                      BufferWriter* w) {
  write_header(w);
  BatchCodec::WriteCount(w, c.end - c.begin);
  for (size_t row = c.begin; row < c.end; ++row) {
    w->PutU32(static_cast<uint32_t>(args_batch[row].size()));
    for (const Value& v : args_batch[row]) v.WriteTo(w);
  }
  if (w->overflowed() || w->size() != c.len) {
    return Internal("serialized chunk size disagrees with precomputed size");
  }
  return Status::OK();
}

/// Ships `args_batch` through a leased executor, chunked to the shm segment
/// and pipelined: each chunk's exact size is precomputed, the chunk is
/// serialized *directly into the to-child ring* and committed, and —
/// because the ring holds two maximal frames — chunk k+1 is committed while
/// the child executes chunk k, so for multi-chunk batches the serialization
/// cost hides behind the child's execution (double buffering across the
/// process boundary). Results decode in place from the ring's frames. No
/// request or reply buffer exists in the parent.
///
/// `write_header` prepends the design-specific request header to each chunk;
/// `header_bytes` is its serialized size including the count prefix (for the
/// chunking budget and the exact-size precomputation).
Result<std::vector<Value>> RunChunkedBatch(
    ipc::RemoteExecutor* executor,
    const std::vector<std::vector<Value>>& args_batch, size_t header_bytes,
    size_t shm_capacity, UdfContext* ctx,
    const std::function<void(BufferWriter*)>& write_header) {
  // Plan every chunk upfront: exact sizes let us reserve exactly what each
  // chunk needs in the ring, and an oversized single row fails before
  // anything has been committed (mid-pipeline failure would leave a chunk
  // in flight).
  std::vector<ChunkPlan> chunks;
  size_t begin = 0;
  while (begin < args_batch.size()) {
    const size_t end =
        BatchChunkEnd(args_batch, begin, header_bytes, shm_capacity);
    size_t len = header_bytes;
    for (size_t row = begin; row < end; ++row) {
      len += ArgRowSerializedSize(args_batch[row]);
    }
    if (len > shm_capacity) {
      return InvalidArgument(StringPrintf(
          "serialized request (%zu bytes) exceeds channel capacity (%zu)",
          len, shm_capacity));
    }
    chunks.push_back(ChunkPlan{begin, end, len});
    begin = end;
  }

  auto commit = [&](const ChunkPlan& c) -> Status {
    if (c.end - c.begin > 1) BatchMessages()->Add();
    JAGUAR_ASSIGN_OR_RETURN(uint8_t* buf, executor->PrepareRequest(c.len));
    BufferWriter w(buf, c.len);
    JAGUAR_RETURN_IF_ERROR(SerializeChunk(c, args_batch, write_header, &w));
    JAGUAR_RETURN_IF_ERROR(executor->BeginExecutePrepared(c.len));
    ZeroCopyBatches()->Add();
    return Status::OK();
  };

  std::vector<Value> results;
  results.reserve(args_batch.size());
  JAGUAR_RETURN_IF_ERROR(commit(chunks[0]));
  for (size_t i = 0; i < chunks.size(); ++i) {
    if (i + 1 < chunks.size()) {
      // Chunk i is in flight; serialize-and-commit chunk i+1 straight into
      // the ring while the child works on i.
      JAGUAR_RETURN_IF_ERROR(commit(chunks[i + 1]));
      PipelinedChunks()->Add();
    }
    JAGUAR_RETURN_IF_ERROR(executor->FinishExecuteWith(
        MakeParentCallbackBridge(ctx),
        [&results, end = chunks[i].end](Slice payload) -> Result<bool> {
          JAGUAR_RETURN_IF_ERROR(
              DecodeResultFrame(payload, end - results.size(), &results));
          return results.size() == end;
        }));
  }
  return results;
}

/// Reads one argument row (`u32 nargs | values`) off a batch request.
Result<std::vector<Value>> ReadArgRow(BufferReader* r) {
  JAGUAR_ASSIGN_OR_RETURN(uint32_t nargs, r->ReadU32());
  std::vector<Value> args;
  args.reserve(nargs);
  for (uint32_t i = 0; i < nargs; ++i) {
    JAGUAR_ASSIGN_OR_RETURN(Value v, Value::ReadFrom(r));
    args.push_back(std::move(v));
  }
  return args;
}

/// Serializes result values [begin, end) straight into the to-parent ring
/// as one kResult frame of `len` payload bytes.
Status ShipResultFrame(ipc::Channel* channel, const std::vector<Value>& outs,
                       size_t begin, size_t end, size_t len) {
  JAGUAR_ASSIGN_OR_RETURN(uint8_t* buf, channel->PrepareToParent(len));
  BufferWriter w(buf, len);
  BatchCodec::WriteCount(&w, end - begin);
  for (size_t i = begin; i < end; ++i) outs[i].WriteTo(&w);
  if (w.overflowed() || w.size() != len) {
    return Internal("serialized result size disagrees with precomputed size");
  }
  return channel->CommitToParent(ipc::MsgType::kResult, len);
}

/// Ships a computed result batch back to the parent, serialized directly
/// into the to-parent ring: one frame when the batch fits the channel's
/// payload limit, otherwise as few frames as fit, in row order. A single
/// value too large for any frame fails the request with InvalidArgument
/// before anything is sent, as an oversized argument row does. Must only be
/// called once every result value is finished: a held ring reservation
/// would block the child's own callback sends behind it.
Status ShipResults(ipc::Channel* channel, const std::vector<Value>& outs) {
  const size_t limit = channel->data_capacity();
  for (const Value& v : outs) {
    if (4 + v.SerializedSize() > limit) {
      return InvalidArgument(StringPrintf(
          "UDF result of %zu bytes exceeds the channel's %zu-byte payload "
          "limit",
          v.SerializedSize(), limit));
    }
  }
  size_t begin = 0;
  do {
    size_t end = begin;
    size_t len = 4;
    while (end < outs.size() && len + outs[end].SerializedSize() <= limit) {
      len += outs[end++].SerializedSize();
    }
    JAGUAR_RETURN_IF_ERROR(ShipResultFrame(channel, outs, begin, end, len));
    begin = end;
  } while (begin < outs.size());
  return Status::OK();
}

/// Runs inside the executor child for each request: a count-prefixed batch
/// of argument rows, each applied with a *fresh* UdfContext (so the
/// per-invocation callback quota means the same thing in both modes). One
/// failing row fails the whole request — the parent fails the batch.
///
/// `request` is an in-place view into the ring: all rows decode into owned
/// Values first, then the frame is released *before* any row executes
/// (decode-then-release), so callbacks and the pipelined next request can
/// flow through the ring while this batch runs.
Status ChildHandleRequest(Slice request, ipc::Channel* channel) {
  BufferReader r(request);
  JAGUAR_ASSIGN_OR_RETURN(std::string impl_name, r.ReadString());
  JAGUAR_ASSIGN_OR_RETURN(uint32_t count, BatchCodec::ReadCount(&r));
  std::vector<std::vector<Value>> rows;
  rows.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    JAGUAR_ASSIGN_OR_RETURN(std::vector<Value> args, ReadArgRow(&r));
    rows.push_back(std::move(args));
  }
  channel->ReleaseInChild();

  // Resolve in the child's (fork-inherited) registry.
  JAGUAR_ASSIGN_OR_RETURN(const NativeUdfEntry* entry,
                          NativeUdfRegistry::Global()->Lookup(impl_name));
  ForwardingCallbackHandler callbacks(channel);
  std::vector<Value> outs;
  outs.reserve(rows.size());
  for (const std::vector<Value>& args : rows) {
    UdfContext ctx(&callbacks);
    Value out;
    JAGUAR_RETURN_IF_ERROR(entry->fn(args, &ctx, &out));
    outs.push_back(std::move(out));
  }
  return ShipResults(channel, outs);
}

}  // namespace

Result<std::unique_ptr<IsolatedNativeRunner>> IsolatedNativeRunner::Spawn(
    const std::string& impl_name, TypeId return_type,
    std::vector<TypeId> arg_types, size_t shm_capacity, size_t pool_size) {
  // Fail fast in the parent if the function does not exist (the child would
  // only discover it at first request).
  JAGUAR_RETURN_IF_ERROR(
      NativeUdfRegistry::Global()->Lookup(impl_name).status());
  auto runner = std::unique_ptr<IsolatedNativeRunner>(
      new IsolatedNativeRunner());
  runner->impl_name_ = impl_name;
  runner->return_type_ = return_type;
  runner->arg_types_ = std::move(arg_types);
  runner->shm_capacity_ = shm_capacity;
  runner->pool_ = std::make_unique<ExecutorPool>(
      [shm_capacity] {
        return ipc::RemoteExecutor::Spawn(shm_capacity, &ChildHandleRequest);
      },
      pool_size);
  // Pre-spawn every executor now (runner creation happens on the query's
  // bind path, single-threaded) so no parallel worker forks mid-query.
  JAGUAR_RETURN_IF_ERROR(runner->pool_->Prewarm(pool_size));
  return runner;
}

void IsolatedNativeRunner::set_ipc_timeout_seconds(unsigned seconds) {
  pool_->set_timeout_seconds(static_cast<int>(seconds));
}

Result<Value> IsolatedNativeRunner::DoInvoke(const std::vector<Value>& args,
                                             UdfContext* ctx) {
  JAGUAR_ASSIGN_OR_RETURN(std::vector<Value> results,
                          DoInvokeBatch({args}, ctx));
  return std::move(results[0]);
}

Result<std::vector<Value>> IsolatedNativeRunner::DoInvokeBatch(
    const std::vector<std::vector<Value>>& args_batch, UdfContext* ctx) {
  for (const std::vector<Value>& args : args_batch) {
    JAGUAR_RETURN_IF_ERROR(CheckUdfArgs(impl_name_, arg_types_, args));
  }
  JAGUAR_ASSIGN_OR_RETURN(ExecutorPool::Lease lease, pool_->Acquire());

  const size_t header_bytes = 4 + impl_name_.size() + 4;
  // A transport failure or deadline expiry means the child is dead or must
  // die; only this worker's batch fails, and the pool respawns later.
  return RunGuardedBatch(&lease, args_batch, header_bytes, shm_capacity_, ctx,
                         [this](BufferWriter* w) { w->PutString(impl_name_); });
}

UdfManager::RunnerFactory MakeIsolatedRunnerFactory(size_t pool_size) {
  return [pool_size](const UdfInfo& info)
             -> Result<std::unique_ptr<UdfRunner>> {
    JAGUAR_ASSIGN_OR_RETURN(
        std::unique_ptr<IsolatedNativeRunner> runner,
        IsolatedNativeRunner::Spawn(info.impl_name, info.return_type,
                                    info.arg_types, kExecutorRingBytes,
                                    pool_size));
    return std::unique_ptr<UdfRunner>(std::move(runner));
  };
}

}  // namespace jaguar

// ---------------------------------------------------------------------------
// Design 4: isolated JagVM (IJNI)
// ---------------------------------------------------------------------------

namespace jaguar {

namespace {

/// Everything the executor child needs to run the UDF. Constructed in the
/// parent before fork(); the child inherits it (including the loaded,
/// verified class — JIT compilation happens lazily in the child).
struct IsolatedVmState {
  jvm::Jvm vm;
  std::unique_ptr<jvm::ClassLoader> loader;
  std::string class_name;
  std::string method_name;
  TypeId return_type;
  std::vector<TypeId> arg_types;
  jvm::ResourceLimits limits;
  jvm::SecurityManager security;
};

/// Marshals one argument row into a fresh ExecContext, calls the method,
/// and unmarshals the result. Callbacks flow UDF -> Jaguar.* native ->
/// UdfContext -> ForwardingCallbackHandler -> shm channel -> server: the VM
/// boundary *and* the process boundary.
Result<Value> ChildRunVmItem(IsolatedVmState* state,
                             const std::vector<Value>& args,
                             UdfContext* udf_ctx) {
  jvm::ExecContext exec(&state->vm, state->loader.get(), &state->security,
                        state->limits, udf_ctx);

  std::vector<int64_t> slots;
  slots.reserve(args.size());
  for (const Value& v : args) {
    switch (v.type()) {
      case TypeId::kInt:
        slots.push_back(v.AsInt());
        break;
      case TypeId::kBool:
        slots.push_back(v.AsBool() ? 1 : 0);
        break;
      case TypeId::kBytes: {
        JAGUAR_ASSIGN_OR_RETURN(jvm::ArrayObject * arr,
                                exec.NewByteArray(Slice(v.AsBytes())));
        slots.push_back(reinterpret_cast<int64_t>(arr));
        break;
      }
      default:
        return NotSupported("unsupported Design-4 UDF argument type");
    }
  }
  JAGUAR_ASSIGN_OR_RETURN(
      int64_t raw,
      exec.CallStatic(state->class_name, state->method_name, slots));

  switch (state->return_type) {
    case TypeId::kInt:
      return Value::Int(raw);
    case TypeId::kBool:
      return Value::Bool(raw != 0);
    case TypeId::kBytes:
      return Value::Bytes(jvm::ExecContext::ReadByteArray(
          reinterpret_cast<const jvm::ArrayObject*>(raw)));
    default:
      return Internal("unexpected Design-4 UDF return type");
  }
}

/// Runs one Design-4 request (a count-prefixed batch of argument rows)
/// inside the executor child. Each row gets a fresh UdfContext and
/// ExecContext — per-invocation quotas and heap state are identical to the
/// scalar protocol; only the process crossing is amortized. Same
/// decode-then-release discipline as ChildHandleRequest.
Status ChildHandleVmRequest(IsolatedVmState* state, Slice request,
                            ipc::Channel* channel) {
  BufferReader r(request);
  JAGUAR_ASSIGN_OR_RETURN(uint32_t count, BatchCodec::ReadCount(&r));
  std::vector<std::vector<Value>> rows;
  rows.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    JAGUAR_ASSIGN_OR_RETURN(std::vector<Value> args, ReadArgRow(&r));
    rows.push_back(std::move(args));
  }
  channel->ReleaseInChild();

  ForwardingCallbackHandler callbacks(channel);
  std::vector<Value> outs;
  outs.reserve(rows.size());
  for (const std::vector<Value>& args : rows) {
    UdfContext udf_ctx(&callbacks);
    JAGUAR_ASSIGN_OR_RETURN(Value out, ChildRunVmItem(state, args, &udf_ctx));
    outs.push_back(std::move(out));
  }
  return ShipResults(channel, outs);
}

}  // namespace

Result<std::unique_ptr<IsolatedJvmRunner>> IsolatedJvmRunner::Spawn(
    const UdfInfo& info, jvm::ResourceLimits limits, size_t pool_size) {
  size_t dot = info.impl_name.find('.');
  if (dot == std::string::npos) {
    return InvalidArgument("Design-4 UDF entry point must be 'Class.method'");
  }

  auto state = std::make_shared<IsolatedVmState>();
  JAGUAR_RETURN_IF_ERROR(InstallJaguarNatives(&state->vm));
  state->loader =
      std::make_unique<jvm::ClassLoader>(state->vm.system_loader());
  JAGUAR_RETURN_IF_ERROR(state->loader->LoadClass(Slice(info.payload)).status());
  state->class_name = info.impl_name.substr(0, dot);
  state->method_name = info.impl_name.substr(dot + 1);
  state->return_type = info.return_type;
  state->arg_types = info.arg_types;
  state->limits = limits;
  state->security.Grant("udf.callback");
  state->security.Grant("udf.fetch");

  // Validate the entry point + declared signature (parent side, before any
  // query can hit a broken child). JvmUdfRunner::Create applies exactly the
  // checks we need; it also confirms the class loads into a namespace.
  JAGUAR_RETURN_IF_ERROR(
      JvmUdfRunner::Create(&state->vm, info, limits).status());

  auto runner = std::unique_ptr<IsolatedJvmRunner>(new IsolatedJvmRunner());
  runner->return_type_ = info.return_type;
  runner->arg_types_ = info.arg_types;
  runner->handler_ = [state](Slice request, ipc::Channel* channel) {
    return ChildHandleVmRequest(state.get(), request, channel);
  };
  ipc::RemoteExecutor::RequestHandler handler = runner->handler_;
  runner->pool_ = std::make_unique<ExecutorPool>(
      [handler] {
        return ipc::RemoteExecutor::Spawn(kExecutorRingBytes, handler);
      },
      pool_size);
  JAGUAR_RETURN_IF_ERROR(runner->pool_->Prewarm(pool_size));
  return runner;
}

void IsolatedJvmRunner::set_ipc_timeout_seconds(unsigned seconds) {
  pool_->set_timeout_seconds(static_cast<int>(seconds));
}

Result<Value> IsolatedJvmRunner::DoInvoke(const std::vector<Value>& args,
                                          UdfContext* ctx) {
  JAGUAR_ASSIGN_OR_RETURN(std::vector<Value> results,
                          DoInvokeBatch({args}, ctx));
  return std::move(results[0]);
}

Result<std::vector<Value>> IsolatedJvmRunner::DoInvokeBatch(
    const std::vector<std::vector<Value>>& args_batch, UdfContext* ctx) {
  for (const std::vector<Value>& args : args_batch) {
    JAGUAR_RETURN_IF_ERROR(CheckUdfArgs("isolated_jvm_udf", arg_types_, args));
  }
  JAGUAR_ASSIGN_OR_RETURN(ExecutorPool::Lease lease, pool_->Acquire());

  const size_t header_bytes = 4;
  return RunGuardedBatch(&lease, args_batch, header_bytes, kExecutorRingBytes,
                         ctx, [](BufferWriter*) {});
}

UdfManager::RunnerFactory MakeIsolatedJvmRunnerFactory(
    jvm::ResourceLimits limits, size_t pool_size) {
  return [limits, pool_size](const UdfInfo& info)
             -> Result<std::unique_ptr<UdfRunner>> {
    JAGUAR_ASSIGN_OR_RETURN(
        std::unique_ptr<IsolatedJvmRunner> runner,
        IsolatedJvmRunner::Spawn(info, limits, pool_size));
    return std::unique_ptr<UdfRunner>(std::move(runner));
  };
}

}  // namespace jaguar
