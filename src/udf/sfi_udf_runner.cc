#include "udf/sfi_udf_runner.h"

#include "common/string_util.h"

namespace jaguar {

namespace {

inline void Opaque(int64_t& v) { asm volatile("" : "+r"(v)); }

/// The paper's generic benchmark UDF, SFI-instrumented: every byte access is
/// masked into the sandbox region. Its loops are pinned to 64-byte lines
/// like generic_udf.cc's, so unrelated code cannot move them.
__attribute__((aligned(64), optimize("align-loops=64"))) Status
SfiGenericUdf(sfi::SfiRegion* region, uint64_t data_len,
              const std::vector<Value>& args, UdfContext* ctx, Value* out) {
  JAGUAR_ASSIGN_OR_RETURN(int64_t indep, args[1].CoerceInt());
  JAGUAR_ASSIGN_OR_RETURN(int64_t dep, args[2].CoerceInt());
  JAGUAR_ASSIGN_OR_RETURN(int64_t callbacks, args[3].CoerceInt());

  int64_t acc = 0;
  for (int64_t i = 0; i < indep; ++i) {
    acc += i;
    Opaque(acc);
  }
  for (int64_t pass = 0; pass < dep; ++pass) {
    for (uint64_t j = 0; j < data_len; ++j) {
      // The SFI access: one AND folds the address into the sandbox.
      acc += region->LoadByte(j);
      Opaque(acc);
    }
  }
  for (int64_t c = 0; c < callbacks; ++c) {
    JAGUAR_ASSIGN_OR_RETURN(int64_t r, ctx->Callback(0, c));
    acc += r;
  }
  *out = Value::Int(acc);
  return Status::OK();
}

/// SFI-instrumented rolling checksum (used by examples/tests as a second,
/// store-heavy SFI workload: it writes a histogram inside the sandbox).
Status SfiHistogramUdf(sfi::SfiRegion* region, uint64_t data_len,
                       const std::vector<Value>& args, UdfContext* ctx,
                       Value* out) {
  // Histogram lives in the sandbox just past the data.
  const uint64_t hist_base = data_len;
  for (int i = 0; i < 256; ++i) {
    region->StoreWord(hist_base + 8 * i, 0);
  }
  for (uint64_t j = 0; j < data_len; ++j) {
    uint8_t b = region->LoadByte(j);
    uint64_t slot = hist_base + 8 * b;
    region->StoreWord(slot, region->LoadWord(slot) + 1);
  }
  // Return the index of the most frequent byte value.
  int64_t best = 0, best_count = -1;
  for (int i = 0; i < 256; ++i) {
    int64_t count = region->LoadWord(hist_base + 8 * i);
    if (count > best_count) {
      best_count = count;
      best = i;
    }
  }
  *out = Value::Int(best);
  return Status::OK();
}

}  // namespace

Result<SfiUdfFn> FindSfiUdf(const std::string& impl_name) {
  if (impl_name == "generic_udf") return &SfiGenericUdf;
  if (impl_name == "histogram_udf") return &SfiHistogramUdf;
  return NotFound(
      "no SFI-instrumented build of '" + impl_name +
      "' (source-level SFI requires the UDF to use the sandbox accessors)");
}

Result<std::unique_ptr<SfiNativeRunner>> SfiNativeRunner::Create(
    const std::string& impl_name, TypeId return_type,
    std::vector<TypeId> arg_types, unsigned region_log2) {
  auto runner = std::unique_ptr<SfiNativeRunner>(new SfiNativeRunner());
  JAGUAR_ASSIGN_OR_RETURN(runner->fn_, FindSfiUdf(impl_name));
  runner->return_type_ = return_type;
  runner->arg_types_ = std::move(arg_types);
  JAGUAR_ASSIGN_OR_RETURN(runner->region_, sfi::SfiRegion::Create(region_log2));
  return runner;
}

Result<Value> SfiNativeRunner::DoInvoke(const std::vector<Value>& args,
                                        UdfContext* ctx) {
  JAGUAR_RETURN_IF_ERROR(CheckUdfArgs("sfi_udf", arg_types_, args));
  if (args.empty() || args[0].type() != TypeId::kBytes) {
    return InvalidArgument("SFI UDFs take a BYTEARRAY first argument");
  }
  const std::vector<uint8_t>& data = args[0].AsBytes();
  // One sandbox region per runner: parallel workers sharing the runner must
  // take turns, or their CopyIn/execute pairs would interleave.
  std::lock_guard<std::mutex> lock(region_mutex_);
  // The trusted crossing: copy the data into the sandbox. (Histogram space
  // is reserved past the data by the UDFs that need it.)
  if (data.size() + 4096 > region_.size()) {
    return ResourceExhausted("argument larger than the SFI sandbox");
  }
  JAGUAR_RETURN_IF_ERROR(region_.CopyIn(0, data.data(), data.size()));
  Value out;
  JAGUAR_RETURN_IF_ERROR(fn_(&region_, data.size(), args, ctx, &out));
  return out;
}

UdfManager::RunnerFactory MakeSfiRunnerFactory(unsigned region_log2) {
  return [region_log2](const UdfInfo& info)
             -> Result<std::unique_ptr<UdfRunner>> {
    JAGUAR_ASSIGN_OR_RETURN(
        std::unique_ptr<SfiNativeRunner> runner,
        SfiNativeRunner::Create(info.impl_name, info.return_type,
                                info.arg_types, region_log2));
    return std::unique_ptr<UdfRunner>(std::move(runner));
  };
}

}  // namespace jaguar
