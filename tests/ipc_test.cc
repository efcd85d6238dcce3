// Direct unit tests for the Design-2 IPC substrate (src/ipc): the
// shared-memory ring channel carrying Section 4.1's crossings and the
// executor protocol layered on it. designs_test.cc exercises these
// end-to-end through SQL; here each channel behavior is pinned down in
// isolation — message-type round-trips, payloads at exactly the payload
// limit, oversized rejection, the callback-suspends-request interleaving,
// pipelining, and the shutdown handshake.

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "ipc/channel.h"
#include "ipc/remote_executor.h"
#include "obs/metrics.h"

namespace jaguar {
namespace {

using ipc::Channel;
using ipc::MsgType;

// A single process can play both ends of a channel: post with SendToChild,
// collect with ReceiveInChild. That keeps the pure message-format tests
// fork-free.

TEST(RingChannelUnitTest, RoundTripEveryMsgType) {
  auto channel = Channel::Create(256).value();
  const MsgType kAll[] = {MsgType::kRequest,       MsgType::kCallbackRequest,
                          MsgType::kCallbackReply, MsgType::kResult,
                          MsgType::kError,         MsgType::kShutdown};
  for (MsgType type : kAll) {
    std::string payload = "t" + std::to_string(static_cast<uint32_t>(type));
    ASSERT_TRUE(channel->SendToChild(type, Slice(payload)).ok());
    auto down = channel->ReceiveInChild().value();
    EXPECT_EQ(down.first, type);
    EXPECT_EQ(Slice(down.second).ToString(), payload);

    ASSERT_TRUE(channel->SendToParent(type, Slice(payload)).ok());
    auto up = channel->ReceiveInParent().value();
    EXPECT_EQ(up.first, type);
    EXPECT_EQ(Slice(up.second).ToString(), payload);
  }
}

TEST(RingChannelUnitTest, PayloadAtExactCapacityRoundTrips) {
  constexpr size_t kCapacity = 128;
  auto channel = Channel::Create(kCapacity).value();
  EXPECT_EQ(channel->data_capacity(), kCapacity);

  std::vector<uint8_t> payload(kCapacity);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 7 + 1);
  }
  ASSERT_TRUE(channel->SendToChild(MsgType::kRequest, Slice(payload)).ok());
  auto msg = channel->ReceiveInChild().value();
  EXPECT_EQ(msg.second, payload);
}

TEST(RingChannelUnitTest, OversizedPayloadRejectedInBothDirections) {
  auto channel = Channel::Create(64).value();
  std::vector<uint8_t> big(65);
  EXPECT_TRUE(channel->SendToChild(MsgType::kRequest, Slice(big))
                  .IsInvalidArgument());
  EXPECT_TRUE(channel->SendToParent(MsgType::kResult, Slice(big))
                  .IsInvalidArgument());
  EXPECT_TRUE(channel->PrepareToChild(65).status().IsInvalidArgument());
  // The failed sends must not have published anything.
  ASSERT_TRUE(channel->SendToChild(MsgType::kRequest, Slice("ok")).ok());
  auto msg = channel->ReceiveInChild().value();
  EXPECT_EQ(Slice(msg.second).ToString(), "ok");
}

TEST(RingChannelUnitTest, EmptyPayloadIsLegal) {
  auto channel = Channel::Create(16).value();
  ASSERT_TRUE(channel->SendToChild(MsgType::kShutdown, Slice()).ok());
  auto msg = channel->ReceiveInChild().value();
  EXPECT_EQ(msg.first, MsgType::kShutdown);
  EXPECT_TRUE(msg.second.empty());
}

TEST(RingChannelUnitTest, ReceiveTimesOutOnSilentPeer) {
  auto channel = Channel::Create(16).value();
  channel->set_timeout_seconds(1);
  Result<Channel::Msg> r = channel->ReceiveInParent();
  EXPECT_TRUE(r.status().IsIoError());
}

TEST(RingChannelUnitTest, SendBumpsCrossingAndRingCounters) {
  auto channel = Channel::Create(64).value();
  obs::MetricsRegistry* reg = obs::MetricsRegistry::Global();
  obs::MetricsSnapshot before = reg->Snapshot("ipc.");
  ASSERT_TRUE(channel->SendToChild(MsgType::kRequest, Slice("12345")).ok());
  ASSERT_TRUE(channel->SendToParent(MsgType::kResult, Slice("123")).ok());
  obs::MetricsSnapshot delta =
      obs::SnapshotDelta(before, reg->Snapshot("ipc."));
  // The crossing counters (every committed frame is one Section-4.1
  // crossing)...
  EXPECT_GE(delta.at("ipc.shm.messages"), 2u);
  EXPECT_GE(delta.at("ipc.shm.payload_bytes"), 8u);
  // ...plus the ring's own accounting.
  EXPECT_GE(delta.at("ipc.ring.frames"), 2u);
  EXPECT_GE(delta.at("ipc.ring.bytes"), 8u);
  (void)channel->ReceiveInChild();
  (void)channel->ReceiveInParent();
}

TEST(RingChannelUnitTest, ZeroCopyPrepareCommitViewRelease) {
  auto channel = Channel::Create(1024).value();
  auto buf = channel->PrepareToChild(5);
  ASSERT_TRUE(buf.ok());
  std::memcpy(*buf, "hello", 5);
  ASSERT_TRUE(channel->CommitToChild(MsgType::kRequest, 5).ok());

  auto view = channel->ReceiveViewInChild().value();
  EXPECT_EQ(view.first, MsgType::kRequest);
  // The view aliases the bytes the producer serialized in place.
  EXPECT_EQ(view.second.data(), *buf);
  EXPECT_EQ(view.second.ToString(), "hello");
  channel->ReleaseInChild();
  channel->ReleaseInChild();  // idempotent

  auto reply = channel->PrepareToParent(3);
  ASSERT_TRUE(reply.ok());
  std::memcpy(*reply, "ack", 3);
  ASSERT_TRUE(channel->CommitToParent(MsgType::kResult, 3).ok());
  auto up = channel->ReceiveViewInParent().value();
  EXPECT_EQ(up.first, MsgType::kResult);
  EXPECT_EQ(up.second.ToString(), "ack");
  channel->ReleaseInParent();
}

TEST(RingChannelUnitTest, CallbackSuspendsRequestUntilReplied) {
  // The Section 4.1 interleaving over the ring channel: fork a child that
  // starts a request, issues a callback, and folds the reply into its
  // result, proving the request stayed suspended until the parent answered.
  auto channel = Channel::Create(4096).value();
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    auto req = channel->ReceiveInChild();
    if (!req.ok() || req->first != MsgType::kRequest) _exit(1);
    if (!channel->SendToParent(MsgType::kCallbackRequest, Slice("need"))
             .ok()) {
      _exit(2);
    }
    auto reply = channel->ReceiveInChild();
    if (!reply.ok() || reply->first != MsgType::kCallbackReply) _exit(3);
    std::string result = Slice(req->second).ToString() + "+" +
                         Slice(reply->second).ToString();
    if (!channel->SendToParent(MsgType::kResult, Slice(result)).ok()) _exit(4);
    _exit(0);
  }
  ASSERT_TRUE(channel->SendToChild(MsgType::kRequest, Slice("work")).ok());
  auto up = channel->ReceiveInParent().value();
  ASSERT_EQ(up.first, MsgType::kCallbackRequest);
  EXPECT_EQ(Slice(up.second).ToString(), "need");
  ASSERT_TRUE(
      channel->SendToChild(MsgType::kCallbackReply, Slice("answer")).ok());
  auto result = channel->ReceiveInParent().value();
  EXPECT_EQ(result.first, MsgType::kResult);
  EXPECT_EQ(Slice(result.second).ToString(), "work+answer");
  int status;
  waitpid(pid, &status, 0);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(RingChannelUnitTest, ShutdownHandshakeReapsChildCleanly) {
  auto channel = Channel::Create(1024).value();
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    while (true) {
      auto msg = channel->ReceiveInChild();
      if (!msg.ok()) _exit(7);
      if (msg->first == MsgType::kShutdown) _exit(0);
      channel->SendToParent(MsgType::kResult, Slice(msg->second)).ok();
    }
  }
  ASSERT_TRUE(channel->SendToChild(MsgType::kRequest, Slice("ping")).ok());
  EXPECT_EQ(Slice(channel->ReceiveInParent().value().second).ToString(),
            "ping");
  ASSERT_TRUE(channel->SendToChild(MsgType::kShutdown, Slice()).ok());
  int status;
  waitpid(pid, &status, 0);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

/// Answers every request with its own bytes.
Status EchoHandler(Slice request, Channel* channel) {
  return channel->SendToParent(MsgType::kResult, request);
}

TEST(RingExecutorUnitTest, PipelinesTwoRequestsAndRejectsAThird) {
  auto executor = ipc::RemoteExecutor::Spawn(1024, &EchoHandler).value();
  EXPECT_EQ(Channel::kSendQueueDepth, 2u);
  auto no_callbacks = [](Slice) -> Result<std::vector<uint8_t>> {
    return Internal("no callbacks expected");
  };

  ASSERT_TRUE(executor->BeginExecute(Slice("one")).ok());
  ASSERT_TRUE(executor->BeginExecute(Slice("two")).ok());
  EXPECT_EQ(executor->in_flight(), 2u);
  // A third request exceeds the ring's pipeline depth.
  EXPECT_FALSE(executor->BeginExecute(Slice("three")).ok());

  // Results come back in FIFO order.
  EXPECT_EQ(Slice(executor->FinishExecute(no_callbacks).value()).ToString(),
            "one");
  EXPECT_EQ(Slice(executor->FinishExecute(no_callbacks).value()).ToString(),
            "two");
  EXPECT_EQ(executor->in_flight(), 0u);
  ASSERT_TRUE(executor->Shutdown().ok());
}

TEST(RingExecutorUnitTest, StashKeepsPipelinedRequestsOrderedAcrossCallbacks) {
  // While the child waits for a callback reply, the pipelined next request
  // is already ahead of the reply in the FIFO to-child ring. The child must
  // set it aside (stash) and still serve both requests in order.
  auto handler = [](Slice request, Channel* channel) -> Status {
    std::vector<uint8_t> req(request.data(), request.data() + request.size());
    channel->ReleaseInChild();
    JAGUAR_RETURN_IF_ERROR(
        channel->SendToParent(MsgType::kCallbackRequest, Slice("cb")));
    while (true) {
      JAGUAR_ASSIGN_OR_RETURN(auto msg, channel->ReceiveFreshInChild());
      if (msg.first == MsgType::kRequest) {
        channel->StashInChild(msg.first, std::move(msg.second));
        continue;
      }
      if (msg.first != MsgType::kCallbackReply) {
        return Internal("unexpected reply type");
      }
      req.push_back('+');
      req.insert(req.end(), msg.second.begin(), msg.second.end());
      return channel->SendToParent(MsgType::kResult, Slice(req));
    }
  };
  auto executor = ipc::RemoteExecutor::Spawn(4096, handler).value();
  auto callbacks = [](Slice payload) -> Result<std::vector<uint8_t>> {
    EXPECT_EQ(payload.ToString(), "cb");
    return std::vector<uint8_t>{'X'};
  };
  ASSERT_TRUE(executor->BeginExecute(Slice("a")).ok());
  ASSERT_TRUE(executor->BeginExecute(Slice("b")).ok());
  EXPECT_EQ(Slice(executor->FinishExecute(callbacks).value()).ToString(),
            "a+X");
  EXPECT_EQ(Slice(executor->FinishExecute(callbacks).value()).ToString(),
            "b+X");
  ASSERT_TRUE(executor->Shutdown().ok());
}

TEST(RemoteExecutorUnitTest, ShutdownIsIdempotentAndDtorSafe) {
  auto executor = ipc::RemoteExecutor::Spawn(1024, &EchoHandler).value();
  auto echo = executor
                  ->Execute(Slice("abc"),
                            [](Slice) -> Result<std::vector<uint8_t>> {
                              return Internal("no callbacks expected");
                            })
                  .value();
  EXPECT_EQ(Slice(echo).ToString(), "abc");
  ASSERT_TRUE(executor->Shutdown().ok());
  EXPECT_TRUE(executor->Shutdown().ok());  // second shutdown: no-op
  executor.reset();                        // dtor after explicit shutdown
}

}  // namespace
}  // namespace jaguar
