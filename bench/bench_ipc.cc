// IPC microbenchmark of the isolated-UDF boundary's shared-memory ring, at
// two levels.
//
//  1. Raw channel: parent streams payloads of 64 B .. 512 KB to a forked
//     echo child that answers each with an 8-byte FNV checksum. This models
//     the UDF argument path — bulk one way, tiny result back. The parent
//     serializes into shared memory in place and the child reads in place.
//  2. Runner level: IsolatedNativeRunner::InvokeBatch of 256 rows x 8 KB
//     through a real executor pool, exercising the serialize-into-ring batch
//     codec and depth-2 pipelining.
//
// Emits BENCH_ipc.json. Shape check: the ring's park count (voluntary
// syscall sleeps) stays below a fifth of its crossings — an uncontended
// crossing costs no syscall. JAGUAR_BENCH_IPC_ITERS overrides the per-size
// iteration count for CI smoke runs.

#include <sys/wait.h>
#include <unistd.h>

#include <cinttypes>
#include <cstring>
#include <thread>

#include "bench/harness.h"
#include "common/clock.h"
#include "ipc/channel.h"
#include "udf/isolated_udf_runner.h"
#include "udf/udf.h"

namespace jaguar {
namespace bench {
namespace {

uint64_t Fnv1a(const uint8_t* data, size_t len, uint64_t h) {
  for (size_t i = 0; i < len; ++i) {
    h ^= data[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// Checksum of the payload's first and last 64 bytes: enough to catch
/// framing/wraparound corruption without a full read pass, which would mask
/// the crossing cost this bench exists to measure.
uint64_t EdgeChecksum(const uint8_t* data, size_t len) {
  uint64_t h = 1469598103934665603ull;
  size_t head = len < 64 ? len : 64;
  h = Fnv1a(data, head, h);
  if (len > 64) {
    size_t tail = len - 64 < 64 ? len - 64 : 64;
    h = Fnv1a(data + len - tail, tail, h);
  }
  return h;
}

int IterationsFor(size_t payload) {
  if (const char* env = std::getenv("JAGUAR_BENCH_IPC_ITERS")) {
    int n = std::atoi(env);
    if (n > 0) return n;
  }
  // Keep per-size wall time roughly constant: ~32 MB of traffic per point,
  // floor of 400 round trips for the small sizes.
  int n = static_cast<int>((32u << 20) / payload);
  if (n < 400) n = 400;
  if (n > 20000) n = 20000;
  return FullScale() ? n * 4 : n;
}

/// Forks an echo-checksum child on `channel`. The child answers every
/// kRequest with the FNV-64 of its payload and exits on kShutdown.
pid_t ForkChecksumChild(ipc::Channel* channel) {
  pid_t pid = ::fork();
  if (pid != 0) return pid;
  for (;;) {
    auto view = channel->ReceiveViewInChild();
    if (!view.ok()) ::_exit(1);
    if (view->first == ipc::MsgType::kShutdown) ::_exit(0);
    uint64_t sum = EdgeChecksum(view->second.data(), view->second.size());
    channel->ReleaseInChild();
    uint8_t reply[8];
    std::memcpy(reply, &sum, sizeof(sum));
    if (!channel->SendToParent(ipc::MsgType::kResult, Slice(reply, 8)).ok()) {
      ::_exit(2);
    }
  }
}

/// One payload-size point: round trips/s and MB/s (payload direction only).
struct EchoPoint {
  double seconds = 0;
  double mbps = 0;
  double trips_per_s = 0;
};

EchoPoint RunEcho(size_t payload_size, int iters) {
  auto channel = ipc::Channel::Create(1 << 20).value();
  pid_t child = ForkChecksumChild(channel.get());
  channel->set_child_pid(child);

  std::vector<uint8_t> staging(payload_size);
  for (size_t i = 0; i < payload_size; ++i) {
    staging[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  const uint64_t expect = EdgeChecksum(staging.data(), staging.size());

  Stopwatch timer;
  for (int i = 0; i < iters; ++i) {
    // The real producer serializes in place; writing the pattern into the
    // reservation stands in for that serialization pass.
    uint8_t* buf = channel->PrepareToChild(payload_size).value();
    std::memcpy(buf, staging.data(), payload_size);
    if (!channel->CommitToChild(ipc::MsgType::kRequest, payload_size).ok()) {
      std::abort();
    }
    auto reply = channel->ReceiveViewInParent().value();
    uint64_t sum;
    std::memcpy(&sum, reply.second.data(), sizeof(sum));
    channel->ReleaseInParent();
    if (sum != expect) std::abort();
  }
  EchoPoint point;
  point.seconds = timer.ElapsedSeconds();
  point.trips_per_s = iters / point.seconds;
  point.mbps = (static_cast<double>(iters) * payload_size) /
               (point.seconds * (1 << 20));

  (void)channel->SendToChild(ipc::MsgType::kShutdown, Slice());
  int wstatus = 0;
  ::waitpid(child, &wstatus, 0);
  return point;
}

/// Runner-level batch point: rows/s for InvokeBatch of `rows` x `row_bytes`.
double RunBatch(int rows, size_t row_bytes, int repeats) {
  RegisterGenericUdfs();
  auto runner =
      IsolatedNativeRunner::Spawn(
          "generic_udf", TypeId::kInt,
          {TypeId::kBytes, TypeId::kInt, TypeId::kInt, TypeId::kInt},
          /*shm_capacity=*/8u << 20, /*pool_size=*/1)
          .value();
  std::vector<std::vector<Value>> batch;
  for (int i = 0; i < rows; ++i) {
    std::vector<uint8_t> bytes(row_bytes,
                               static_cast<uint8_t>(i * 37 + 1));
    batch.push_back({Value::Bytes(std::move(bytes)), Value::Int(1),
                     Value::Int(1), Value::Int(0)});
  }
  UdfContext ctx(nullptr);
  // Warm up (spawn + page faults), then time the best of `repeats`.
  if (!runner->InvokeBatch(batch, &ctx).ok()) std::abort();
  double best = 1e30;
  for (int r = 0; r < repeats; ++r) {
    Stopwatch timer;
    auto result = runner->InvokeBatch(batch, &ctx);
    double s = timer.ElapsedSeconds();
    if (!result.ok() || result->size() != batch.size()) std::abort();
    if (s < best) best = s;
  }
  return rows / best;
}

uint64_t MetricValue(const obs::MetricsSnapshot& snap,
                     const std::string& name) {
  auto it = snap.find(name);
  return it == snap.end() ? 0 : it->second;
}

int Run() {
  const std::vector<size_t> sizes = {64, 4096, 65536, 512 * 1024};
  PrintHeader("IPC - the isolated-UDF ring",
              "echo round trips (bulk payload out, 8-byte checksum back) "
              "and isolated-UDF InvokeBatch");

  obs::MetricsRegistry* reg = obs::MetricsRegistry::Global();

  PrintSeriesHeader("payload B", {"MB/s", "trips/s"});
  std::vector<EchoPoint> points;
  obs::MetricsSnapshot before = reg->Snapshot("ipc.");
  for (size_t size : sizes) {
    points.push_back(RunEcho(size, IterationsFor(size)));
  }
  obs::MetricsSnapshot delta =
      obs::SnapshotDelta(before, reg->Snapshot("ipc."));
  for (size_t i = 0; i < sizes.size(); ++i) {
    std::printf("%10zu %12.1f %12.0f\n", sizes[i], points[i].mbps,
                points[i].trips_per_s);
  }

  // Syscall economy: the ring only syscalls when a side actually parks.
  const uint64_t ring_parks = MetricValue(delta, "ipc.ring.parks");
  const uint64_t ring_crossings = MetricValue(delta, "ipc.shm.messages");
  std::printf("\nring: %" PRIu64 " crossings, %" PRIu64
              " parks (%.1f%% parked)\n",
              ring_crossings, ring_parks,
              ring_crossings > 0 ? 100.0 * ring_parks / ring_crossings : 0.0);

  const int batch_rows = 256;
  const size_t row_bytes = 8192;
  const int repeats = FullScale() ? 9 : 3;
  const double rows_s = RunBatch(batch_rows, row_bytes, repeats);
  std::printf("\nInvokeBatch %d rows x %zu B: %.0f rows/s\n", batch_rows,
              row_bytes, rows_s);

  std::FILE* json = std::fopen("BENCH_ipc.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n  \"echo\": {\n");
    for (size_t i = 0; i < sizes.size(); ++i) {
      std::fprintf(json,
                   "    \"%zu\": {\"mbps\": %.2f, \"trips_per_s\": %.0f}%s\n",
                   sizes[i], points[i].mbps, points[i].trips_per_s,
                   i + 1 < sizes.size() ? "," : "");
    }
    std::fprintf(json,
                 "  },\n  \"ring_parks\": %" PRIu64
                 ",\n  \"ring_crossings\": %" PRIu64
                 ",\n  \"batch\": {\"rows\": %d, \"row_bytes\": %zu, "
                 "\"rows_per_s\": %.0f}\n}\n",
                 ring_parks, ring_crossings, batch_rows, row_bytes, rows_s);
    std::fclose(json);
    std::printf("\nwrote BENCH_ipc.json\n");
  }

  std::printf("\nShape checks:\n");
  // The count the ring's spin-or-park choice reads: the CPUs this process
  // may use, so a `taskset -c 0` run skips like a one-core host.
  const int cores = SpscRingBuffer::UsableCpus();
  if (cores < 2) {
    // On one CPU every crossing is a mandatory context switch — the producer
    // cannot run while the consumer does — so the waiter parks on every
    // crossing. The check below is only meaningful with real concurrency.
    std::printf("  [SKIP] the parks check needs >= 2 cores (process may "
                "use %d)\n",
                cores);
    return 0;
  }
  const bool ok = ShapeCheck(
      ring_parks * 10 < 2 * ring_crossings,
      StringPrintf("ring parks (%" PRIu64 ") are < 20%% of its crossings "
                   "(%" PRIu64 ")",
                   ring_parks, ring_crossings));
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace jaguar

int main() { return jaguar::bench::Run(); }
