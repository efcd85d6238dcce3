#ifndef JAGUAR_IPC_CHANNEL_H_
#define JAGUAR_IPC_CHANNEL_H_

/// \file channel.h
/// The parent↔child channel behind the isolated-UDF boundary (Designs 2 and
/// 4): one lock-free SPSC ring buffer per direction in a
/// MAP_SHARED|MAP_ANONYMOUS mapping inherited across fork(). Sends serialize
/// directly into the ring (PrepareTo*/CommitTo*), receives view frames in
/// place and release them after decoding, and an uncontended crossing costs
/// zero syscalls — see common/ring_buffer.h for the frame format, parking
/// protocol and memory-ordering argument. Every committed frame is one
/// Section 4.1 crossing (`ipc.shm.messages`).
///
/// Each ring holds two maximal frames plus slack, so the parent can pipeline
/// request k+1 behind an unconsumed request k (`kSendQueueDepth`) and still
/// post small callback replies without ever filling the ring — the
/// flow-control analysis DESIGN.md §IPC records.
///
/// Message types multiplex the two conversations sharing a channel: UDF
/// requests flowing down, and results *or callback requests* flowing up (a
/// callback suspends the request until the parent posts the reply). Because
/// the parent pipelines, a child awaiting a callback reply can see the
/// *next* request first — it stashes such frames (`StashInChild`) and the
/// child's receives drain the stash before touching the ring.

#include <sys/types.h>

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "common/ring_buffer.h"
#include "common/slice.h"
#include "common/status.h"

namespace jaguar {
namespace ipc {

enum class MsgType : uint32_t {
  kRequest = 1,          ///< parent→child: run a UDF.
  kCallbackRequest = 2,  ///< child→parent: UDF needs the server.
  kCallbackReply = 3,    ///< parent→child: callback result.
  kResult = 4,           ///< child→parent: UDF result.
  kError = 5,            ///< child→parent or parent→child: a failure
                         ///< (payload = status).
  kShutdown = 6,         ///< parent→child: exit the executor loop.
};

class Channel {
 public:
  using Msg = std::pair<MsgType, std::vector<uint8_t>>;
  /// A received frame viewed in place (or, for a frame the child stashed,
  /// over the stash's copy). Valid until the matching Release*/next receive.
  using View = std::pair<MsgType, Slice>;

  /// Requests the parent may commit before collecting the first result: a
  /// pipelined request plus callback replies can never fill the ring.
  static constexpr size_t kSendQueueDepth = 2;

  /// Allocates a channel whose per-direction payload limit is
  /// `data_capacity` bytes. Must be created before fork(); both processes
  /// then use the same object (the mapping is shared).
  static Result<std::unique_ptr<Channel>> Create(size_t data_capacity);

  ~Channel();
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  size_t data_capacity() const { return capacity_; }

  /// Copying sends. Fail with InvalidArgument if the payload exceeds
  /// `data_capacity`.
  Status SendToChild(MsgType type, Slice payload);
  Status SendToParent(MsgType type, Slice payload);

  /// Zero-copy sends: reserve a region of up to `max_len` bytes in the ring,
  /// serialize into it, commit with the actual length. At most one
  /// reservation per direction may be outstanding.
  Result<uint8_t*> PrepareToChild(size_t max_len);
  Status CommitToChild(MsgType type, size_t actual_len);
  Result<uint8_t*> PrepareToParent(size_t max_len);
  Status CommitToParent(MsgType type, size_t actual_len);

  /// Copying receives. The child's drains stashed frames first.
  Result<Msg> ReceiveInChild();
  Result<Msg> ReceiveInParent();

  /// Like ReceiveInChild but bypasses the stash: used by a child awaiting a
  /// callback reply, which must *not* re-pop the requests it just deferred.
  Result<Msg> ReceiveFreshInChild();

  /// View receives: the frame stays in the ring until the matching Release.
  /// Release is idempotent and a no-op for a stashed frame.
  Result<View> ReceiveViewInChild();
  Result<View> ReceiveViewInParent();
  void ReleaseInChild();
  void ReleaseInParent();

  /// Child side: defer an out-of-order frame (a pipelined kRequest that
  /// arrived while awaiting a kCallbackReply); the child's receives return
  /// stashed frames, oldest first, before reading the ring.
  void StashInChild(MsgType type, std::vector<uint8_t> payload);

  /// Wait timeout for receives (and ring-space waits), seconds — guards
  /// against a silent peer.
  void set_timeout_seconds(int seconds) { timeout_seconds_ = seconds; }

  /// Attaches (or clears, with null) the query deadline observed by
  /// parent-side waits. The parent wakes every ~100 ms slice to re-check its
  /// monotonic budget; with a deadline installed it also checks the deadline
  /// and abandons the wait with `DeadlineExceeded` — the watchdog tick that
  /// lets the runner SIGKILL a wedged executor child at most ~100 ms after
  /// the deadline passes. Not owned; the caller must keep the deadline alive
  /// across the wait (and clear it afterwards).
  void set_parent_deadline(const QueryDeadline* deadline) {
    parent_deadline_ = deadline;
  }

  /// The executor child on the other end. Between park slices a parent-side
  /// wait checks whether it has exited and fails with IoError if so.
  void set_child_pid(pid_t pid) { child_pid_ = pid; }

 private:
  Channel() = default;

  SpscRingBuffer::WaitOptions ParentWait() const;
  SpscRingBuffer::WaitOptions ChildWait() const;

  size_t capacity_ = 0;
  int timeout_seconds_ = 30;
  const QueryDeadline* parent_deadline_ = nullptr;
  pid_t child_pid_ = 0;

  void* mem_ = nullptr;
  size_t total_size_ = 0;
  SpscRingBuffer to_child_;
  SpscRingBuffer to_parent_;

  /// Release token of the current in-place view per receiving side (each
  /// forked process only ever uses one side's slot).
  std::optional<uint64_t> child_view_end_;
  std::optional<uint64_t> parent_view_end_;

  std::deque<Msg> child_stash_;
  /// The stashed frame a child view receive returned.
  std::vector<uint8_t> child_view_buf_;
};

}  // namespace ipc
}  // namespace jaguar

#endif  // JAGUAR_IPC_CHANNEL_H_
