#ifndef JAGUAR_IPC_REMOTE_EXECUTOR_H_
#define JAGUAR_IPC_REMOTE_EXECUTOR_H_

/// \file remote_executor.h
/// A forked executor process plus the request/callback/result protocol of
/// Design 2. The paper assigns "one remote executor process per UDF in the
/// query ... created once per query (not once per function invocation)"; the
/// UDF layer follows the same policy.
///
/// Protocol (all over one Channel):
///
///   parent                         child
///   ------ kRequest(payload) --->  handler runs...
///   <----- kCallbackRequest ----   (0..n times; parent answers each)
///   ------ kCallbackReply ----->   (or kError if the callback failed)
///   <----- kResult... | kError -
///
/// Errors cross the boundary as serialized Status (code + message). A
/// response too big for one frame arrives as several kResult frames, which
/// the parent's consumer reads in order until it says the response is
/// complete.
///
/// The parent may keep up to `Channel::kSendQueueDepth` (2) requests
/// committed before collecting the first result — the pipelined
/// double-buffering of Section 2.5 batching without any copy into a private
/// buffer: `PrepareRequest`/`BeginExecutePrepared` serialize the request
/// straight into shared memory, and `FinishExecuteWith` hands each result
/// frame to the caller as an in-place view before releasing it.

#include <sys/types.h>

#include <functional>
#include <memory>
#include <vector>

#include "common/status.h"
#include "ipc/channel.h"

namespace jaguar {
namespace ipc {

/// Serializes a Status for the wire (code byte + message).
std::vector<uint8_t> EncodeStatus(const Status& status);
Status DecodeStatus(Slice payload);

class RemoteExecutor {
 public:
  /// Runs in the child for each kRequest and answers it itself, with one
  /// or more kResult frames, or returns an error, which the child loop ships
  /// as kError. It may issue callbacks by sending kCallbackRequest on
  /// `channel` and awaiting kCallbackReply. `request` is an in-place view
  /// into the ring: a handler that issues callbacks must decode what it
  /// needs and call `channel->ReleaseInChild()` first (decode-then-release).
  using RequestHandler = std::function<Status(Slice request, Channel* channel)>;

  /// Answers a child callback in the parent.
  using CallbackHandler =
      std::function<Result<std::vector<uint8_t>>(Slice payload)>;

  /// Consumes one result frame in place (before it is released) and says
  /// whether the response is complete.
  using ResultConsumer = std::function<Result<bool>(Slice payload)>;

  /// Forks an executor child running `handler` in a loop. The child inherits
  /// the parent's full image (so native UDF registries resolve identically —
  /// the same effect as the paper's executors being built from the server
  /// binary).
  static Result<std::unique_ptr<RemoteExecutor>> Spawn(size_t shm_capacity,
                                                       RequestHandler handler);

  ~RemoteExecutor();
  RemoteExecutor(const RemoteExecutor&) = delete;
  RemoteExecutor& operator=(const RemoteExecutor&) = delete;

  /// Parent side: executes one request whose response is one frame,
  /// servicing callbacks until it arrives. Equivalent to BeginExecute +
  /// FinishExecute.
  Result<std::vector<uint8_t>> Execute(Slice request,
                                       const CallbackHandler& on_callback);

  /// Parent side, pipelined form: ships the request to the child and returns
  /// immediately, leaving it in flight. The caller overlaps useful work —
  /// serializing the *next* request — with the child's execution, then calls
  /// FinishExecute to collect the result. At most `Channel::kSendQueueDepth`
  /// requests may be in flight per executor; exceeding the depth is an
  /// error.
  Status BeginExecute(Slice request);

  /// Zero-copy form of BeginExecute: reserve up to `max_len` bytes in the
  /// to-child ring, serialize the request into the returned region, then
  /// commit it with BeginExecutePrepared.
  Result<uint8_t*> PrepareRequest(size_t max_len);
  Status BeginExecutePrepared(size_t actual_len);

  /// Parent side: services callbacks for the oldest in-flight request until
  /// its one-frame result (or error) arrives. Must follow a successful
  /// BeginExecute*.
  Result<std::vector<uint8_t>> FinishExecute(const CallbackHandler& on_callback);

  /// Like FinishExecute but hands each result frame to `consume` as an
  /// in-place view, releasing it after `consume` returns, until `consume`
  /// says the response is complete. A callback reply larger than the
  /// channel's payload limit goes to the child as an InvalidArgument kError,
  /// so the request fails and the child stays in step.
  Status FinishExecuteWith(const CallbackHandler& on_callback,
                           const ResultConsumer& consume);

  /// Requests committed whose responses have not been read in full. After a
  /// failed Finish*, a nonzero count means the executor is out of step with
  /// its child and must be discarded.
  size_t in_flight() const { return in_flight_; }

  /// Asks the child to exit and reaps it. Called by the destructor too.
  Status Shutdown();

  /// SIGKILLs and reaps the child without a handshake — for discarding a
  /// wedged executor or cleaning up a leased-but-orphaned one at pool
  /// teardown. Idempotent; safe when the child is already dead.
  void Kill();

  pid_t child_pid() const { return child_pid_; }
  Channel* channel() { return channel_.get(); }

 private:
  RemoteExecutor() = default;

  std::unique_ptr<Channel> channel_;
  pid_t child_pid_ = -1;
  size_t in_flight_ = 0;
};

}  // namespace ipc
}  // namespace jaguar

#endif  // JAGUAR_IPC_REMOTE_EXECUTOR_H_
