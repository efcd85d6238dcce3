#include "udf/generic_udf.h"

#include "common/logging.h"

namespace jaguar {

namespace {

/// Opaque barrier: the compiler must assume `v` changed. This levels the
/// playing field between optimized C++ and the JagVM JIT (which performs
/// every iteration for real), exactly as the paper's measured loops did.
inline void Opaque(int64_t& v) { asm volatile("" : "+r"(v)); }
inline void Opaque(uint64_t& v) { asm volatile("" : "+r"(v)); }

/// The measured loops live in separate noinline functions, each starting on
/// a 64-byte line with 64-byte aligned loop heads, so that edits anywhere
/// else in the binary cannot shift their code layout against cache lines
/// and perturb the benchmark baselines.
__attribute__((noinline, aligned(64), optimize("align-loops=64"))) int64_t
UncheckedDataPass(const uint8_t* p, uint64_t n, int64_t acc) {
  for (uint64_t j = 0; j < n; ++j) {
    acc += p[j];
    Opaque(acc);
  }
  return acc;
}

/// One pass with a per-access bounds check doing the *same work* a JVM does:
/// the check compares an opaque index against the array length **reloaded
/// from memory** each time — in Java the length is an object field, and the
/// JITs of the paper's era did not hoist it out of loops.
__attribute__((noinline, aligned(64), optimize("align-loops=64"))) bool
CheckedDataPass(const uint8_t* p, uint64_t n, int64_t* acc_io) {
  volatile uint64_t length_field = n;
  int64_t acc = *acc_io;
  for (uint64_t j = 0; j < n; ++j) {
    uint64_t jj = j;
    Opaque(jj);
    if (jj >= length_field) return false;
    acc += p[jj];
    Opaque(acc);
  }
  *acc_io = acc;
  return true;
}

__attribute__((noinline, aligned(64), optimize("align-loops=64"))) int64_t
IndepComputePass(int64_t count, int64_t acc) {
  for (int64_t i = 0; i < count; ++i) {
    acc += i;
    Opaque(acc);
  }
  return acc;
}

}  // namespace

Result<int64_t> GenericUdfCompute(const std::vector<uint8_t>& data,
                                  int64_t indep_comps, int64_t dep_comps,
                                  int64_t callbacks, UdfContext* ctx,
                                  bool bounds_checked) {
  int64_t acc = 0;

  // Data-independent computation: NumDataIndepComps integer additions.
  acc = IndepComputePass(indep_comps, acc);

  // Data-dependent computation: NumDataDepComps full passes over the array
  // ("C++" plain, or the explicitly bounds-checked "BC++" of Section 5.4).
  const uint8_t* p = data.data();
  const uint64_t n = data.size();
  for (int64_t pass = 0; pass < dep_comps; ++pass) {
    if (bounds_checked) {
      if (!CheckedDataPass(p, n, &acc)) {
        return RuntimeError("array index out of bounds in generic UDF");
      }
    } else {
      acc = UncheckedDataPass(p, n, acc);
    }
  }

  // Callbacks to the server; the standard handler echoes its argument.
  for (int64_t c = 0; c < callbacks; ++c) {
    JAGUAR_ASSIGN_OR_RETURN(int64_t r, ctx->Callback(0, c));
    acc += r;
  }
  return acc;
}

int64_t GenericUdfExpected(const std::vector<uint8_t>& data,
                           int64_t indep_comps, int64_t dep_comps,
                           int64_t callbacks) {
  auto sum_0_to = [](int64_t k) { return k > 0 ? k * (k - 1) / 2 : 0; };
  int64_t data_sum = 0;
  for (uint8_t b : data) data_sum += b;
  return sum_0_to(indep_comps) + dep_comps * data_sum + sum_0_to(callbacks);
}

namespace {

Status ExtractGenericArgs(const std::vector<Value>& args,
                          const std::vector<uint8_t>** data, int64_t* indep,
                          int64_t* dep, int64_t* callbacks) {
  if (args.size() != 4) {
    return InvalidArgument("generic_udf expects 4 arguments");
  }
  if (args[0].type() != TypeId::kBytes) {
    return InvalidArgument("generic_udf argument 1 must be BYTEARRAY");
  }
  *data = &args[0].AsBytes();
  JAGUAR_ASSIGN_OR_RETURN(*indep, args[1].CoerceInt());
  JAGUAR_ASSIGN_OR_RETURN(*dep, args[2].CoerceInt());
  JAGUAR_ASSIGN_OR_RETURN(*callbacks, args[3].CoerceInt());
  return Status::OK();
}

Status GenericUdfNative(const std::vector<Value>& args, UdfContext* ctx,
                        Value* out) {
  const std::vector<uint8_t>* data;
  int64_t indep, dep, callbacks;
  JAGUAR_RETURN_IF_ERROR(
      ExtractGenericArgs(args, &data, &indep, &dep, &callbacks));
  JAGUAR_ASSIGN_OR_RETURN(
      int64_t acc, GenericUdfCompute(*data, indep, dep, callbacks, ctx,
                                     /*bounds_checked=*/false));
  *out = Value::Int(acc);
  return Status::OK();
}

Status GenericUdfChecked(const std::vector<Value>& args, UdfContext* ctx,
                         Value* out) {
  const std::vector<uint8_t>* data;
  int64_t indep, dep, callbacks;
  JAGUAR_RETURN_IF_ERROR(
      ExtractGenericArgs(args, &data, &indep, &dep, &callbacks));
  JAGUAR_ASSIGN_OR_RETURN(
      int64_t acc, GenericUdfCompute(*data, indep, dep, callbacks, ctx,
                                     /*bounds_checked=*/true));
  *out = Value::Int(acc);
  return Status::OK();
}

Status NoopUdf(const std::vector<Value>& args, UdfContext* ctx, Value* out) {
  *out = Value::Int(0);
  return Status::OK();
}

}  // namespace

void RegisterGenericUdfs() {
  static const bool registered = [] {
    NativeUdfRegistry* reg = NativeUdfRegistry::Global();
    const std::vector<TypeId> sig = {TypeId::kBytes, TypeId::kInt, TypeId::kInt,
                                     TypeId::kInt};
    reg->Register({"generic_udf", TypeId::kInt, sig, &GenericUdfNative}).ok();
    reg->Register({"generic_udf_checked", TypeId::kInt, sig,
                   &GenericUdfChecked})
        .ok();
    reg->Register({"noop_udf", TypeId::kInt, sig, &NoopUdf}).ok();
    return true;
  }();
  (void)registered;
}

const char* GenericUdfJJavaSource() {
  return R"jj(
class GenericUdf {
  static int run(byte[] data, int indep, int dep, int callbacks) {
    int acc = 0;
    int i = 0;
    while (i < indep) {
      acc = acc + i;
      i = i + 1;
    }
    int p = 0;
    while (p < dep) {
      int j = 0;
      while (j < data.length) {
        acc = acc + data[j];
        j = j + 1;
      }
      p = p + 1;
    }
    int c = 0;
    while (c < callbacks) {
      acc = acc + Jaguar.callback(0, c);
      c = c + 1;
    }
    return acc;
  }
}
)jj";
}

}  // namespace jaguar
