#include "ipc/channel.h"

#include <sys/mman.h>

#include <cerrno>
#include <cstring>

#include "common/string_util.h"
#include "obs/metrics.h"

namespace jaguar {
namespace ipc {

namespace {

RingStats MakeRingStats() {
  auto* reg = obs::MetricsRegistry::Global();
  RingStats s;
  s.bytes = reg->GetCounter("ipc.ring.bytes");
  s.frames = reg->GetCounter("ipc.ring.frames");
  s.wraps = reg->GetCounter("ipc.ring.wraps");
  s.spins = reg->GetCounter("ipc.ring.spins");
  s.parks = reg->GetCounter("ipc.ring.parks");
  s.wakes = reg->GetCounter("ipc.ring.wakes");
  return s;
}

/// Every committed frame is one Section-4.1 boundary crossing. (Like all IPC
/// counters these are per-process: a forked executor child accumulates into
/// its own copy.)
void CountMessage(size_t payload_bytes) {
  static obs::Counter* messages =
      obs::MetricsRegistry::Global()->GetCounter("ipc.shm.messages");
  static obs::Counter* bytes =
      obs::MetricsRegistry::Global()->GetCounter("ipc.shm.payload_bytes");
  messages->Add();
  bytes->Add(payload_bytes);
}

/// Pipelined requests a child had to copy aside while awaiting a callback
/// reply — the (bounded, small) copy cost the ring pays to preserve FIFO
/// frame order under pipelining.
obs::Counter* StashCopies() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global()->GetCounter("ipc.ring.stash_copies");
  return c;
}

/// Ring bytes per direction for a given payload limit: two maximal padded
/// frames plus wrap/reply slack, rounded up to a power of two.
uint64_t RingCapacityFor(size_t data_capacity) {
  const uint64_t frame =
      SpscRingBuffer::Pad(SpscRingBuffer::kHeaderBytes + data_capacity);
  return SpscRingBuffer::RoundUpPow2(2 * (frame + 64) + 4096);
}

Result<Channel::Msg> ReceiveCopy(SpscRingBuffer* ring,
                                 const SpscRingBuffer::WaitOptions& w) {
  JAGUAR_ASSIGN_OR_RETURN(SpscRingBuffer::Frame f, ring->Read(w));
  Channel::Msg msg(static_cast<MsgType>(f.type), f.payload.ToVector());
  ring->Release(f.end_pos);
  return msg;
}

Result<Channel::View> ReceiveView(SpscRingBuffer* ring,
                                  const SpscRingBuffer::WaitOptions& w,
                                  std::optional<uint64_t>* view_end) {
  JAGUAR_ASSIGN_OR_RETURN(SpscRingBuffer::Frame f, ring->Read(w));
  *view_end = f.end_pos;
  return Channel::View(static_cast<MsgType>(f.type), f.payload);
}

void ReleaseView(SpscRingBuffer* ring, std::optional<uint64_t>* view_end) {
  if (view_end->has_value()) {
    ring->Release(**view_end);
    view_end->reset();
  }
}

}  // namespace

Result<std::unique_ptr<Channel>> Channel::Create(size_t data_capacity) {
  auto channel = std::unique_ptr<Channel>(new Channel());
  channel->capacity_ = data_capacity;
  const uint64_t ring_cap = RingCapacityFor(data_capacity);
  const size_t per_ring = SpscRingBuffer::LayoutBytes(ring_cap);
  channel->total_size_ = 2 * per_ring;
  void* mem = ::mmap(nullptr, channel->total_size_, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) {
    return IoError(StringPrintf("mmap(%zu) for ring channel failed: %s",
                                channel->total_size_, std::strerror(errno)));
  }
  channel->mem_ = mem;
  RingStats stats = MakeRingStats();
  JAGUAR_RETURN_IF_ERROR(
      channel->to_child_.Init(mem, ring_cap, data_capacity, stats));
  JAGUAR_RETURN_IF_ERROR(channel->to_parent_.Init(
      static_cast<uint8_t*>(mem) + per_ring, ring_cap, data_capacity, stats));
  return channel;
}

Channel::~Channel() {
  if (mem_ != nullptr) {
    to_child_.Destroy();
    to_parent_.Destroy();
    ::munmap(mem_, total_size_);
  }
}

SpscRingBuffer::WaitOptions Channel::ParentWait() const {
  SpscRingBuffer::WaitOptions w;
  w.budget_ns = static_cast<int64_t>(timeout_seconds_) * 1000000000;
  w.deadline = parent_deadline_;
  w.peer_pid = child_pid_;
  return w;
}

SpscRingBuffer::WaitOptions Channel::ChildWait() const {
  // Children never observe a query deadline: the parent enforces it by
  // killing them from outside.
  SpscRingBuffer::WaitOptions w;
  w.budget_ns = static_cast<int64_t>(timeout_seconds_) * 1000000000;
  return w;
}

Status Channel::SendToChild(MsgType type, Slice payload) {
  JAGUAR_RETURN_IF_ERROR(
      to_child_.Write(static_cast<uint32_t>(type), payload, ParentWait()));
  CountMessage(payload.size());
  return Status::OK();
}

Status Channel::SendToParent(MsgType type, Slice payload) {
  JAGUAR_RETURN_IF_ERROR(
      to_parent_.Write(static_cast<uint32_t>(type), payload, ChildWait()));
  CountMessage(payload.size());
  return Status::OK();
}

Result<uint8_t*> Channel::PrepareToChild(size_t max_len) {
  return to_child_.Prepare(max_len, ParentWait());
}

Status Channel::CommitToChild(MsgType type, size_t actual_len) {
  JAGUAR_RETURN_IF_ERROR(
      to_child_.Commit(static_cast<uint32_t>(type), actual_len));
  CountMessage(actual_len);
  return Status::OK();
}

Result<uint8_t*> Channel::PrepareToParent(size_t max_len) {
  return to_parent_.Prepare(max_len, ChildWait());
}

Status Channel::CommitToParent(MsgType type, size_t actual_len) {
  JAGUAR_RETURN_IF_ERROR(
      to_parent_.Commit(static_cast<uint32_t>(type), actual_len));
  CountMessage(actual_len);
  return Status::OK();
}

Result<Channel::Msg> Channel::ReceiveInChild() {
  if (!child_stash_.empty()) {
    Msg msg = std::move(child_stash_.front());
    child_stash_.pop_front();
    return msg;
  }
  return ReceiveFreshInChild();
}

Result<Channel::Msg> Channel::ReceiveInParent() {
  return ReceiveCopy(&to_parent_, ParentWait());
}

Result<Channel::Msg> Channel::ReceiveFreshInChild() {
  return ReceiveCopy(&to_child_, ChildWait());
}

Result<Channel::View> Channel::ReceiveViewInChild() {
  if (!child_stash_.empty()) {
    const MsgType type = child_stash_.front().first;
    child_view_buf_ = std::move(child_stash_.front().second);
    child_stash_.pop_front();
    return View(type, Slice(child_view_buf_));
  }
  return ReceiveView(&to_child_, ChildWait(), &child_view_end_);
}

Result<Channel::View> Channel::ReceiveViewInParent() {
  return ReceiveView(&to_parent_, ParentWait(), &parent_view_end_);
}

void Channel::ReleaseInChild() { ReleaseView(&to_child_, &child_view_end_); }

void Channel::ReleaseInParent() {
  ReleaseView(&to_parent_, &parent_view_end_);
}

void Channel::StashInChild(MsgType type, std::vector<uint8_t> payload) {
  child_stash_.emplace_back(type, std::move(payload));
  StashCopies()->Add();
}

}  // namespace ipc
}  // namespace jaguar
