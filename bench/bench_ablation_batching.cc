// Ablation: amortizing per-invocation boundary costs by batching
// (Section 2.5: "Since there are several invocations of the UDF in a
// database environment, it may be possible to reduce the overhead through
// batching").
//
// Two boundaries, each measured per-call vs batched:
//  * Design 2's process boundary: N executor round trips of one item vs one
//    round trip carrying N items.
//  * Design 3's language boundary: N CallStatic crossings vs one crossing
//    that loops N times inside the VM.

#include <benchmark/benchmark.h>

#include "common/bytes.h"
#include "common/logging.h"
#include "ipc/remote_executor.h"
#include "jjc/jjc.h"
#include "jvm/vm.h"

namespace jaguar {
namespace {

constexpr int kBatch = 256;

// -- Process boundary (Design 2) ---------------------------------------------

Status SumHandler(Slice request, ipc::Channel* channel) {
  BufferReader r(request);
  JAGUAR_ASSIGN_OR_RETURN(uint32_t count, BatchCodec::ReadCount(&r));
  int64_t total = 0;
  for (uint32_t i = 0; i < count; ++i) {
    JAGUAR_ASSIGN_OR_RETURN(int64_t v, r.ReadI64());
    total += v * v;
  }
  BufferWriter w;
  w.PutI64(total);
  return channel->SendToParent(ipc::MsgType::kResult, w.AsSlice());
}

Result<std::vector<uint8_t>> NoCallbacks(Slice) {
  return Internal("no callbacks in this bench");
}

void BM_IpcPerInvocation(benchmark::State& state) {
  auto executor = ipc::RemoteExecutor::Spawn(1 << 16, &SumHandler).value();
  for (auto _ : state) {
    int64_t total = 0;
    for (int i = 0; i < kBatch; ++i) {
      BufferWriter w;
      BatchCodec::WriteCount(&w, 1);
      w.PutI64(i);
      auto result = executor->Execute(w.AsSlice(), &NoCallbacks);
      JAGUAR_CHECK(result.ok());
      BufferReader r((Slice(*result)));
      total += r.ReadI64().value();
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_IpcPerInvocation);

void BM_IpcBatched(benchmark::State& state) {
  auto executor = ipc::RemoteExecutor::Spawn(1 << 16, &SumHandler).value();
  for (auto _ : state) {
    BufferWriter w;
    BatchCodec::WriteCount(&w, kBatch);
    for (int i = 0; i < kBatch; ++i) w.PutI64(i);
    auto result = executor->Execute(w.AsSlice(), &NoCallbacks);
    JAGUAR_CHECK(result.ok());
    BufferReader r((Slice(*result)));
    benchmark::DoNotOptimize(r.ReadI64().value());
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_IpcBatched);

// -- Language boundary (Design 3) ---------------------------------------------

const char* kVmSource = R"(
class B {
  static int one(int x) { return x * x; }
  static int many(int n) {
    int total = 0;
    int i = 0;
    while (i < n) {
      total = total + one(i);
      i = i + 1;
    }
    return total;
  }
})";

struct VmFixture {
  VmFixture() {
    vm = std::make_unique<jvm::Jvm>();
    auto cf = jjc::Compile(kVmSource);
    JAGUAR_CHECK(cf.ok()) << cf.status();
    JAGUAR_CHECK(vm->system_loader()->LoadClass(Slice(cf->Serialize())).ok());
    security = jvm::SecurityManager::AllowAll();
  }
  std::unique_ptr<jvm::Jvm> vm;
  jvm::SecurityManager security;
};

void BM_VmPerInvocation(benchmark::State& state) {
  VmFixture fixture;
  for (auto _ : state) {
    int64_t total = 0;
    for (int i = 0; i < kBatch; ++i) {
      // A fresh boundary crossing (context + marshalling) per item, as a
      // per-tuple UDF application does.
      jvm::ExecContext ctx(fixture.vm.get(), fixture.vm->system_loader(),
                           &fixture.security, {});
      total += ctx.CallStatic("B", "one", {i}).value_or(0);
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_VmPerInvocation);

void BM_VmBatched(benchmark::State& state) {
  VmFixture fixture;
  for (auto _ : state) {
    jvm::ExecContext ctx(fixture.vm.get(), fixture.vm->system_loader(),
                         &fixture.security, {});
    benchmark::DoNotOptimize(ctx.CallStatic("B", "many", {kBatch}).value_or(0));
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_VmBatched);

}  // namespace
}  // namespace jaguar

BENCHMARK_MAIN();
