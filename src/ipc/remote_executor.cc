#include "ipc/remote_executor.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>

#include "common/bytes.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace jaguar {
namespace ipc {

std::vector<uint8_t> EncodeStatus(const Status& status) {
  BufferWriter w;
  w.PutU8(static_cast<uint8_t>(status.code()));
  w.PutString(status.message());
  return w.Release();
}

Status DecodeStatus(Slice payload) {
  BufferReader r(payload);
  Result<uint8_t> code = r.ReadU8();
  if (!code.ok()) return Corruption("malformed status payload");
  Result<std::string> message = r.ReadString();
  if (!message.ok()) return Corruption("malformed status payload");
  return Status(static_cast<StatusCode>(*code), std::move(*message));
}

namespace {

/// Child main loop: serve requests until kShutdown (or channel failure).
/// Requests arrive as in-place views; ReleaseInChild after the handler is a
/// safety net for handlers that did not release themselves (release is
/// idempotent). The handler ships its own kResult frames; the loop ships
/// its errors.
[[noreturn]] void ChildLoop(Channel* channel,
                            const RemoteExecutor::RequestHandler& handler) {
  while (true) {
    Result<Channel::View> msg = channel->ReceiveViewInChild();
    if (!msg.ok()) _exit(2);
    if (msg->first == MsgType::kShutdown) _exit(0);
    if (msg->first != MsgType::kRequest) _exit(3);

    Status handled = handler(msg->second, channel);
    channel->ReleaseInChild();
    if (!handled.ok() &&
        !channel->SendToParent(MsgType::kError, Slice(EncodeStatus(handled)))
             .ok()) {
      _exit(4);
    }
  }
}

}  // namespace

Result<std::unique_ptr<RemoteExecutor>> RemoteExecutor::Spawn(
    size_t shm_capacity, RequestHandler handler) {
  auto executor = std::unique_ptr<RemoteExecutor>(new RemoteExecutor());
  JAGUAR_ASSIGN_OR_RETURN(executor->channel_, Channel::Create(shm_capacity));
  pid_t pid = ::fork();
  if (pid < 0) return IoError("fork failed");
  if (pid == 0) {
    ChildLoop(executor->channel_.get(), handler);  // never returns
  }
  executor->child_pid_ = pid;
  executor->channel_->set_child_pid(pid);
  return executor;
}

RemoteExecutor::~RemoteExecutor() { Shutdown().ok(); }

Status RemoteExecutor::Shutdown() {
  if (child_pid_ < 0) return Status::OK();
  channel_->SendToChild(MsgType::kShutdown, Slice()).ok();
  int status = 0;
  pid_t reaped = ::waitpid(child_pid_, &status, 0);
  child_pid_ = -1;
  if (reaped < 0) return IoError("waitpid failed");
  return Status::OK();
}

void RemoteExecutor::Kill() {
  if (child_pid_ <= 0) return;
  ::kill(child_pid_, SIGKILL);
  int status = 0;
  ::waitpid(child_pid_, &status, 0);
  child_pid_ = -1;
}

Result<std::vector<uint8_t>> RemoteExecutor::Execute(
    Slice request, const CallbackHandler& on_callback) {
  JAGUAR_RETURN_IF_ERROR(BeginExecute(request));
  return FinishExecute(on_callback);
}

Status RemoteExecutor::BeginExecute(Slice request) {
  if (child_pid_ < 0) return Internal("remote executor already shut down");
  if (in_flight_ >= Channel::kSendQueueDepth) {
    return Internal("remote executor request pipeline is full");
  }
  JAGUAR_RETURN_IF_ERROR(channel_->SendToChild(MsgType::kRequest, request));
  ++in_flight_;
  return Status::OK();
}

Result<uint8_t*> RemoteExecutor::PrepareRequest(size_t max_len) {
  if (child_pid_ < 0) return Internal("remote executor already shut down");
  if (in_flight_ >= Channel::kSendQueueDepth) {
    return Internal("remote executor request pipeline is full");
  }
  return channel_->PrepareToChild(max_len);
}

Status RemoteExecutor::BeginExecutePrepared(size_t actual_len) {
  JAGUAR_RETURN_IF_ERROR(
      channel_->CommitToChild(MsgType::kRequest, actual_len));
  ++in_flight_;
  return Status::OK();
}

Result<std::vector<uint8_t>> RemoteExecutor::FinishExecute(
    const CallbackHandler& on_callback) {
  std::vector<uint8_t> out;
  JAGUAR_RETURN_IF_ERROR(
      FinishExecuteWith(on_callback, [&out](Slice payload) -> Result<bool> {
        out = payload.ToVector();
        return true;
      }));
  return out;
}

Status RemoteExecutor::FinishExecuteWith(const CallbackHandler& on_callback,
                                         const ResultConsumer& consume) {
  if (in_flight_ == 0) return Internal("no request in flight");
  while (true) {
    JAGUAR_ASSIGN_OR_RETURN(Channel::View msg,
                            channel_->ReceiveViewInParent());
    switch (msg.first) {
      case MsgType::kResult: {
        Result<bool> done = consume(msg.second);
        channel_->ReleaseInParent();
        if (!done.ok()) return done.status();
        if (*done) {
          --in_flight_;
          return Status::OK();
        }
        break;  // the response goes on in the next frame
      }
      case MsgType::kError: {
        Status error = DecodeStatus(msg.second);
        channel_->ReleaseInParent();
        --in_flight_;
        return error;
      }
      case MsgType::kCallbackRequest: {
        Result<std::vector<uint8_t>> reply = on_callback(msg.second);
        channel_->ReleaseInParent();
        if (reply.ok() && reply->size() > channel_->data_capacity()) {
          reply = InvalidArgument(StringPrintf(
              "callback reply of %zu bytes exceeds the channel's %zu-byte "
              "payload limit",
              reply->size(), channel_->data_capacity()));
        }
        if (!reply.ok()) {
          // Surface the callback failure to the child; it will fail the UDF
          // and ship the error back as kError.
          JAGUAR_RETURN_IF_ERROR(channel_->SendToChild(
              MsgType::kError, Slice(EncodeStatus(reply.status()))));
          break;
        }
        JAGUAR_RETURN_IF_ERROR(
            channel_->SendToChild(MsgType::kCallbackReply, Slice(*reply)));
        break;
      }
      default:
        channel_->ReleaseInParent();
        return Internal("unexpected message type from executor child");
    }
  }
}

}  // namespace ipc
}  // namespace jaguar
