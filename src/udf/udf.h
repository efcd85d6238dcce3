#ifndef JAGUAR_UDF_UDF_H_
#define JAGUAR_UDF_UDF_H_

/// \file udf.h
/// Core abstractions for user-defined functions.
///
/// A UDF is described by a `UdfDescriptor` (signature + implementation), runs
/// under a specific *design* (Table 1 of the paper) through a `UdfRunner`, and
/// talks back to the server through a `UdfContext` ("callbacks", Section 4).

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "types/value.h"

namespace jaguar {

/// The server-side facilities a UDF may request during execution.
/// Implementations live in the engine (real queries), in tests (mocks), and in
/// the benchmark harness (no-op counters, as in the paper's experiments where
/// "no data is actually transferred during the callback").
class UdfCallbackHandler {
 public:
  virtual ~UdfCallbackHandler() = default;

  /// Generic server request. `kind` selects a facility, `arg` parameterizes
  /// it, and the result is an integer. The paper's measured callbacks carry
  /// no bulk data; this models them.
  virtual Result<int64_t> Callback(int64_t kind, int64_t arg) = 0;

  /// Fetches a byte range of a large object identified by `handle` — the
  /// "Clip()/Lookup()" pattern of Section 5.5, where a UDF is given a handle
  /// rather than the whole object.
  virtual Result<std::vector<uint8_t>> FetchBytes(int64_t handle,
                                                  uint64_t offset,
                                                  uint64_t len) = 0;
};

/// Per-invocation context: routes callbacks and enforces the callback quota
/// (part of the resource management story of Section 6.2).
class UdfContext {
 public:
  /// \param handler may be null, in which case any callback fails.
  explicit UdfContext(UdfCallbackHandler* handler) : handler_(handler) {}

  Result<int64_t> Callback(int64_t kind, int64_t arg);
  Result<std::vector<uint8_t>> FetchBytes(int64_t handle, uint64_t offset,
                                          uint64_t len);

  /// Number of callbacks made through this context so far.
  uint64_t callbacks_made() const { return callbacks_made_; }

  /// Caps the number of callbacks a single invocation may make
  /// (0 = unlimited). Exceeding it fails with ResourceExhausted.
  void set_callback_quota(uint64_t quota) { callback_quota_ = quota; }

  /// Attaches the query's deadline token. The context does not own it; the
  /// engine keeps it alive for the duration of the query. May be null
  /// (unbounded query).
  void set_deadline(const QueryDeadline* deadline) { deadline_ = deadline; }
  const QueryDeadline* deadline() const { return deadline_; }

  /// \return OK while the query deadline (if any) has not passed.
  Status CheckDeadline() const { return jaguar::CheckDeadline(deadline_); }

 private:
  Status ChargeCallback();

  UdfCallbackHandler* handler_;
  uint64_t callbacks_made_ = 0;
  uint64_t callback_quota_ = 0;
  const QueryDeadline* deadline_ = nullptr;
};

/// Signature of a native (C++) UDF. Mirrors PREDATOR's original Design 1
/// extension point.
using NativeUdfFn = Status (*)(const std::vector<Value>& args, UdfContext* ctx,
                               Value* out);

/// A native UDF registration: signature plus function pointer.
struct NativeUdfEntry {
  std::string name;
  TypeId return_type;
  std::vector<TypeId> arg_types;
  NativeUdfFn fn;
};

/// Process-wide registry of native UDF implementations. Design 1 calls them
/// directly; Design 2's remote executor processes are forked from the server
/// image and resolve the same entries by name on their side of the boundary.
class NativeUdfRegistry {
 public:
  /// The process-global registry.
  static NativeUdfRegistry* Global();

  Status Register(NativeUdfEntry entry);
  Result<const NativeUdfEntry*> Lookup(const std::string& name) const;

 private:
  std::map<std::string, NativeUdfEntry> entries_;
};

/// One invocable UDF, bound to a concrete execution design. Implementations:
/// `IntegratedNativeRunner` (Design 1), `IsolatedNativeRunner` (Design 2),
/// `JvmUdfRunner` (Design 3), `SfiNativeRunner` (Section 2.3).
///
/// `Invoke` is the public entry point; it wraps the design-specific
/// `DoInvoke` with per-design metrics so every Figure-4–8 quantity is
/// observable in the live engine:
///   udf.<design>.invocations   total calls through this design
///   udf.<design>.failures      calls that returned an error
///   udf.<design>.latency_ns    histogram of per-call wall time
///   udf.<design>.arg_bytes     argument bytes crossing the boundary
///   udf.<design>.result_bytes  result bytes crossing back
/// where <design> is `DesignMetricKey(design_label())`.
class UdfRunner {
 public:
  virtual ~UdfRunner() = default;

  /// Applies the UDF to `args`. `ctx` carries the callback channel.
  Result<Value> Invoke(const std::vector<Value>& args, UdfContext* ctx);

  /// Applies the UDF to every argument row of `args_batch`, returning one
  /// result per row in order — semantically a loop over `Invoke`, and by
  /// default implemented as one (`DoInvokeBatch` loops `DoInvoke`). Runners
  /// with a real boundary override `DoInvokeBatch` to cross it **once per
  /// batch**: the isolated designs ship the whole batch in one shm round
  /// trip, the JagVM design enters the VM once and loops inside. Any row
  /// failing fails the whole batch. Per-design `udf.<design>.invocations` /
  /// `arg_bytes` / `result_bytes` still count per row (they measure UDF
  /// applications); `udf.<design>.latency_ns` records one sample per batch,
  /// and `udf.batch.*` counters record the batch entries themselves.
  Result<std::vector<Value>> InvokeBatch(
      const std::vector<std::vector<Value>>& args_batch, UdfContext* ctx);

  /// Observer called with the outcome `Status` of every counted invocation
  /// (per batch for `InvokeBatch`). Installed by the resolver to feed the
  /// per-UDF quarantine tracker; deadline fail-fasts (where the UDF never
  /// ran) are not reported. May be empty.
  using OutcomeListener = std::function<void(const Status&)>;
  void set_outcome_listener(OutcomeListener listener) {
    outcome_listener_ = std::move(listener);
  }

  /// \return The label used in the paper's graphs ("C++", "IC++", "JNI"...).
  virtual std::string design_label() const = 0;

  /// Maps a design label to its metric-name segment: lowercased, '+' → 'p',
  /// '-' → '_'. "C++" → "cpp", "IC++" → "icpp", "JNI" → "jni",
  /// "IJNI" → "ijni", "SFI-C++" → "sfi_cpp".
  static std::string DesignMetricKey(const std::string& label);

 protected:
  /// Design-specific invocation, implemented by each runner. Called only
  /// through `Invoke`.
  virtual Result<Value> DoInvoke(const std::vector<Value>& args,
                                 UdfContext* ctx) = 0;

  /// Design-specific batch invocation; the default loops `DoInvoke` (correct
  /// for in-process designs, which have no crossing to amortize). Called
  /// only through `InvokeBatch`, never with an empty batch.
  virtual Result<std::vector<Value>> DoInvokeBatch(
      const std::vector<std::vector<Value>>& args_batch, UdfContext* ctx);

 private:
  /// Resolves the cached metric pointers on first use (design_label() is
  /// virtual, so this cannot run in the constructor).
  void EnsureMetrics();

  std::once_flag metrics_once_;
  obs::Counter* invocations_ = nullptr;
  obs::Counter* failures_ = nullptr;
  obs::Counter* arg_bytes_ = nullptr;
  obs::Counter* result_bytes_ = nullptr;
  obs::Histogram* latency_ns_ = nullptr;
  OutcomeListener outcome_listener_;
};

/// Design 1: the UDF is a function pointer inside the server process. Fastest
/// and least safe — "essentially corresponds to hard-coding the UDF into the
/// server".
class IntegratedNativeRunner : public UdfRunner {
 public:
  explicit IntegratedNativeRunner(const NativeUdfEntry* entry)
      : entry_(entry) {}

  std::string design_label() const override { return "C++"; }

 protected:
  Result<Value> DoInvoke(const std::vector<Value>& args,
                         UdfContext* ctx) override;

 private:
  const NativeUdfEntry* entry_;
};

/// Validates `args` against an entry's declared signature (arity + types,
/// with int→double widening). Shared by all runners.
Status CheckUdfArgs(const std::string& name,
                    const std::vector<TypeId>& arg_types,
                    const std::vector<Value>& args);

/// Resolves a function name to a runner plus its signature. The engine's
/// implementation (`UdfManager`) consults the catalog and instantiates the
/// runner matching the UDF's registered design; tests supply mocks.
class UdfResolver {
 public:
  virtual ~UdfResolver() = default;

  /// \return A runner for `name`; fills `return_type` and `arg_types` with
  /// the declared signature. The resolver owns the runner, which must stay
  /// alive for the duration of the query using it.
  virtual Result<UdfRunner*> Resolve(const std::string& name,
                                     TypeId* return_type,
                                     std::vector<TypeId>* arg_types) = 0;
};

}  // namespace jaguar

#endif  // JAGUAR_UDF_UDF_H_
