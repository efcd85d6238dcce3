#ifndef JAGUAR_UDF_ISOLATED_UDF_RUNNER_H_
#define JAGUAR_UDF_ISOLATED_UDF_RUNNER_H_

/// \file isolated_udf_runner.h
/// Design 2 ("IC++"): native UDFs running in a separate executor process,
/// talking to the server over a shared-memory ring channel (src/ipc).
///
/// Per invocation, the argument values are serialized into the shared-memory
/// ring, the request is posted, and the parent then services callback
/// requests until the result (or an error) comes back — the hand-off
/// protocol of Section 4.1. The process-switch cost this design pays per
/// crossing is what Figures 5 and 8 measure.
///
/// Request/response payloads are uniformly count-prefixed (`BatchCodec`): a
/// scalar invocation is a batch of one, and `InvokeBatch` ships a whole
/// argument batch in **one** boundary crossing (chunked only when the
/// serialized arguments would overflow the channel's payload limit) — the
/// Section 2.5 batching amortization. When a batch spans multiple chunks the
/// crossing is *pipelined*: chunk k+1 is serialized *directly into the
/// shared-memory ring* and committed while the child executes chunk k, and
/// results are decoded in place from the ring — no intermediate
/// request/reply buffers at all (`ipc.ring.zero_copy_batches`). A chunk's
/// results come back as one frame, or as several when one frame would
/// exceed the payload limit; a single result value that exceeds it fails
/// the batch with InvalidArgument and keeps the executor.
///
/// The runner is backed by an `ExecutorPool` of up to `pool_size` executor
/// processes, so the N worker threads of a morsel-driven parallel scan can
/// cross the boundary concurrently, each through its own leased child. If an
/// executor child dies mid-request (detected as an IoError on the channel),
/// only the leasing worker's batch fails; the dead child is discarded and
/// the pool forks a replacement on the next acquire.

#include <memory>

#include "catalog/catalog.h"
#include "ipc/remote_executor.h"
#include "jvm/security.h"
#include "udf/executor_pool.h"
#include "udf/udf.h"
#include "udf/udf_manager.h"

namespace jaguar {

/// Capacity of each direction of an executor's shared-memory ring: the
/// payload limit that one chunk of serialized arguments, one result frame
/// or one callback reply must fit in (a Rel10000 row fits with room).
constexpr size_t kExecutorRingBytes = 1 << 20;

class IsolatedNativeRunner : public UdfRunner {
 public:
  /// Forks an executor pool for the native function `impl_name` (resolved in
  /// each child from the inherited native registry). All `pool_size`
  /// executors are pre-spawned so no worker thread forks mid-query.
  /// \param shm_capacity per-direction shared-memory data size; must hold
  /// the largest serialized argument list.
  /// \param pool_size executor processes (one per parallel scan worker).
  static Result<std::unique_ptr<IsolatedNativeRunner>> Spawn(
      const std::string& impl_name, TypeId return_type,
      std::vector<TypeId> arg_types, size_t shm_capacity = kExecutorRingBytes,
      size_t pool_size = 1);

  std::string design_label() const override { return "IC++"; }

  /// Pid of one live executor child (tests assert liveness/cleanup), or -1
  /// when every executor died and none has been respawned yet.
  pid_t child_pid() const { return pool_->first_child_pid(); }

  /// Pids of all live executor children (fault-injection tests pick one to
  /// kill).
  std::vector<pid_t> executor_pids() const { return pool_->executor_pids(); }

  /// Ensures at least n executors are alive (capped at the pool size).
  Status Prewarm(size_t n) { return pool_->Prewarm(n); }

  /// Silent-peer timeout for the shared-memory channels, forwarded to
  /// `Channel::set_timeout_seconds` (and re-applied after a respawn). A
  /// child that exits fails the invocation within one ~100 ms park slice
  /// whatever this is.
  void set_ipc_timeout_seconds(unsigned seconds);

 protected:
  Result<Value> DoInvoke(const std::vector<Value>& args,
                         UdfContext* ctx) override;
  Result<std::vector<Value>> DoInvokeBatch(
      const std::vector<std::vector<Value>>& args_batch,
      UdfContext* ctx) override;

 private:
  IsolatedNativeRunner() = default;

  std::string impl_name_;
  TypeId return_type_ = TypeId::kInt;
  std::vector<TypeId> arg_types_;
  size_t shm_capacity_ = kExecutorRingBytes;
  std::unique_ptr<ExecutorPool> pool_;
};

/// UdfManager factory for `UdfLanguage::kNativeIsolated`.
UdfManager::RunnerFactory MakeIsolatedRunnerFactory(size_t pool_size = 1);

/// Design 4 ("IJNI"): a JJava UDF inside a JagVM hosted by a separate
/// executor process — Table 1's fourth cell, which the paper only
/// extrapolates ("a combination of Design 2 and Design 3") and jaguar
/// implements. The UDF gets both OS-level isolation and the VM's
/// verification/security/quotas; every invocation pays the process crossing,
/// and callbacks pay it twice (IPC) plus the VM boundary.
class IsolatedJvmRunner : public UdfRunner {
 public:
  static Result<std::unique_ptr<IsolatedJvmRunner>> Spawn(
      const UdfInfo& info, jvm::ResourceLimits limits, size_t pool_size = 1);

  std::string design_label() const override { return "IJNI"; }

  /// See IsolatedNativeRunner::child_pid.
  pid_t child_pid() const { return pool_->first_child_pid(); }

  std::vector<pid_t> executor_pids() const { return pool_->executor_pids(); }

  Status Prewarm(size_t n) { return pool_->Prewarm(n); }

  /// See IsolatedNativeRunner::set_ipc_timeout_seconds.
  void set_ipc_timeout_seconds(unsigned seconds);

 protected:
  Result<Value> DoInvoke(const std::vector<Value>& args,
                         UdfContext* ctx) override;
  Result<std::vector<Value>> DoInvokeBatch(
      const std::vector<std::vector<Value>>& args_batch,
      UdfContext* ctx) override;

 private:
  IsolatedJvmRunner() = default;

  TypeId return_type_ = TypeId::kInt;
  std::vector<TypeId> arg_types_;
  /// Captured by the pool's spawn function: every executor child inherits
  /// the same pre-loaded VM state at fork.
  ipc::RemoteExecutor::RequestHandler handler_;
  std::unique_ptr<ExecutorPool> pool_;
};

/// UdfManager factory for `UdfLanguage::kJJavaIsolated`.
UdfManager::RunnerFactory MakeIsolatedJvmRunnerFactory(
    jvm::ResourceLimits limits, size_t pool_size = 1);

}  // namespace jaguar

#endif  // JAGUAR_UDF_ISOLATED_UDF_RUNNER_H_
