#include "udf/udf.h"

#include <cctype>

#include "common/string_util.h"

namespace jaguar {

Status UdfContext::ChargeCallback() {
  if (handler_ == nullptr) {
    return NotSupported("UDF made a callback but no handler is installed");
  }
  if (callback_quota_ != 0 && callbacks_made_ >= callback_quota_) {
    return ResourceExhausted(
        StringPrintf("UDF exceeded its callback quota of %llu",
                     static_cast<unsigned long long>(callback_quota_)));
  }
  ++callbacks_made_;
  static obs::Counter* callbacks =
      obs::MetricsRegistry::Global()->GetCounter("udf.callbacks");
  callbacks->Add();
  return Status::OK();
}

Result<int64_t> UdfContext::Callback(int64_t kind, int64_t arg) {
  JAGUAR_RETURN_IF_ERROR(ChargeCallback());
  return handler_->Callback(kind, arg);
}

Result<std::vector<uint8_t>> UdfContext::FetchBytes(int64_t handle,
                                                    uint64_t offset,
                                                    uint64_t len) {
  JAGUAR_RETURN_IF_ERROR(ChargeCallback());
  return handler_->FetchBytes(handle, offset, len);
}

NativeUdfRegistry* NativeUdfRegistry::Global() {
  static NativeUdfRegistry* registry = new NativeUdfRegistry();
  return registry;
}

Status NativeUdfRegistry::Register(NativeUdfEntry entry) {
  const std::string key = ToLower(entry.name);
  if (entry.fn == nullptr) {
    return InvalidArgument("native UDF '" + entry.name + "' has no function");
  }
  if (entries_.count(key) != 0) {
    return AlreadyExists("native UDF '" + entry.name + "' already registered");
  }
  entries_[key] = std::move(entry);
  return Status::OK();
}

Result<const NativeUdfEntry*> NativeUdfRegistry::Lookup(
    const std::string& name) const {
  auto it = entries_.find(ToLower(name));
  if (it == entries_.end()) {
    return NotFound("no native UDF named '" + name + "'");
  }
  return &it->second;
}

Status CheckUdfArgs(const std::string& name,
                    const std::vector<TypeId>& arg_types,
                    const std::vector<Value>& args) {
  if (args.size() != arg_types.size()) {
    return InvalidArgument(StringPrintf("UDF %s expects %zu arguments, got %zu",
                                        name.c_str(), arg_types.size(),
                                        args.size()));
  }
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i].is_null()) continue;
    TypeId want = arg_types[i];
    TypeId got = args[i].type();
    const bool widened = want == TypeId::kDouble && got == TypeId::kInt;
    if (got != want && !widened) {
      return InvalidArgument(StringPrintf(
          "UDF %s argument %zu expects %s, got %s", name.c_str(), i,
          TypeIdToString(want), TypeIdToString(got)));
    }
  }
  return Status::OK();
}

std::string UdfRunner::DesignMetricKey(const std::string& label) {
  std::string key;
  key.reserve(label.size());
  for (char c : label) {
    if (c == '+') {
      key.push_back('p');
    } else if (c == '-') {
      key.push_back('_');
    } else {
      key.push_back(
          static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    }
  }
  return key;
}

void UdfRunner::EnsureMetrics() {
  std::call_once(metrics_once_, [this] {
    obs::MetricsRegistry* reg = obs::MetricsRegistry::Global();
    const std::string base = "udf." + DesignMetricKey(design_label()) + ".";
    invocations_ = reg->GetCounter(base + "invocations");
    failures_ = reg->GetCounter(base + "failures");
    arg_bytes_ = reg->GetCounter(base + "arg_bytes");
    result_bytes_ = reg->GetCounter(base + "result_bytes");
    latency_ns_ = reg->GetHistogram(base + "latency_ns");
  });
}

Result<Value> UdfRunner::Invoke(const std::vector<Value>& args,
                                UdfContext* ctx) {
  // Fail fast once the query deadline has passed: no design should start a
  // fresh boundary crossing for a query that is already dead.
  if (ctx != nullptr) JAGUAR_RETURN_IF_ERROR(ctx->CheckDeadline());
  EnsureMetrics();
  invocations_->Add();
  uint64_t in_bytes = 0;
  for (const Value& v : args) in_bytes += v.SerializedSize();
  arg_bytes_->Add(in_bytes);

  obs::Timer timer(latency_ns_);
  Result<Value> result = DoInvoke(args, ctx);
  if (result.ok()) {
    result_bytes_->Add(result->SerializedSize());
  } else {
    failures_->Add();
  }
  if (outcome_listener_) outcome_listener_(result.status());
  return result;
}

Result<std::vector<Value>> UdfRunner::DoInvokeBatch(
    const std::vector<std::vector<Value>>& args_batch, UdfContext* ctx) {
  std::vector<Value> results;
  results.reserve(args_batch.size());
  for (const std::vector<Value>& args : args_batch) {
    JAGUAR_ASSIGN_OR_RETURN(Value v, DoInvoke(args, ctx));
    results.push_back(std::move(v));
  }
  return results;
}

Result<std::vector<Value>> UdfRunner::InvokeBatch(
    const std::vector<std::vector<Value>>& args_batch, UdfContext* ctx) {
  if (args_batch.empty()) return std::vector<Value>();
  if (ctx != nullptr) JAGUAR_RETURN_IF_ERROR(ctx->CheckDeadline());
  EnsureMetrics();
  static obs::Counter* batch_invocations =
      obs::MetricsRegistry::Global()->GetCounter("udf.batch.invocations");
  static obs::Counter* batch_items =
      obs::MetricsRegistry::Global()->GetCounter("udf.batch.items");
  batch_invocations->Add();
  batch_items->Add(args_batch.size());
  invocations_->Add(args_batch.size());
  uint64_t in_bytes = 0;
  for (const std::vector<Value>& args : args_batch) {
    for (const Value& v : args) in_bytes += v.SerializedSize();
  }
  arg_bytes_->Add(in_bytes);

  obs::Timer timer(latency_ns_);
  Result<std::vector<Value>> results = DoInvokeBatch(args_batch, ctx);
  if (results.ok()) {
    if (results->size() != args_batch.size()) {
      failures_->Add();
      Status mismatch = Internal(StringPrintf(
          "UDF batch returned %zu results for %zu argument rows",
          results->size(), args_batch.size()));
      if (outcome_listener_) outcome_listener_(mismatch);
      return mismatch;
    }
    uint64_t out_bytes = 0;
    for (const Value& v : *results) out_bytes += v.SerializedSize();
    result_bytes_->Add(out_bytes);
  } else {
    failures_->Add();
  }
  if (outcome_listener_) outcome_listener_(results.status());
  return results;
}

Result<Value> IntegratedNativeRunner::DoInvoke(const std::vector<Value>& args,
                                               UdfContext* ctx) {
  JAGUAR_RETURN_IF_ERROR(CheckUdfArgs(entry_->name, entry_->arg_types, args));
  Value out;
  JAGUAR_RETURN_IF_ERROR(entry_->fn(args, ctx, &out));
  return out;
}

}  // namespace jaguar
