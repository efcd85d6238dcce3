// Tests for the two-tier network layer: wire protocol encodings, the server
// loop, the client library, and the full client→server UDF migration flow of
// Section 6.4.

#include <gtest/gtest.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "common/random.h"
#include "common/string_util.h"
#include "engine/database.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "temp_db.h"
#include "udf/generic_udf.h"
#include "udf/udf.h"

namespace jaguar {
namespace net {
namespace {

TEST(ProtocolTest, UdfInfoRoundTrip) {
  UdfInfo info;
  info.name = "MyUdf";
  info.language = UdfLanguage::kJJava;
  info.return_type = TypeId::kInt;
  info.arg_types = {TypeId::kBytes, TypeId::kInt};
  info.impl_name = "My.run";
  info.payload = Random(3).Bytes(500);

  BufferWriter w;
  EncodeUdfInfo(info, &w);
  BufferReader r(w.AsSlice());
  UdfInfo back = DecodeUdfInfo(&r).value();
  EXPECT_EQ(back.name, info.name);
  EXPECT_EQ(back.language, info.language);
  EXPECT_EQ(back.return_type, info.return_type);
  EXPECT_EQ(back.arg_types, info.arg_types);
  EXPECT_EQ(back.impl_name, info.impl_name);
  EXPECT_EQ(back.payload, info.payload);
}

TEST(ProtocolTest, QueryResultRoundTrip) {
  QueryResult result;
  result.schema = Schema({{"a", TypeId::kInt}, {"b", TypeId::kBytes}});
  result.rows.push_back(Tuple({Value::Int(1), Value::Bytes({1, 2, 3})}));
  result.rows.push_back(Tuple({Value::Int(2), Value::Null()}));
  result.rows_affected = 2;
  result.message = "ok";

  BufferWriter w;
  EncodeQueryResult(result, &w);
  BufferReader r(w.AsSlice());
  QueryResult back = DecodeQueryResult(&r).value();
  EXPECT_EQ(back.schema, result.schema);
  ASSERT_EQ(back.rows.size(), 2u);
  EXPECT_TRUE(back.rows[0].value(1).Equals(Value::Bytes({1, 2, 3})));
  EXPECT_TRUE(back.rows[1].value(1).is_null());
  EXPECT_EQ(back.rows_affected, 2u);
  EXPECT_EQ(back.message, "ok");
}

TEST(ProtocolTest, TruncatedUdfInfoFailsCleanly) {
  UdfInfo info;
  info.name = "x";
  info.impl_name = "y";
  BufferWriter w;
  EncodeUdfInfo(info, &w);
  for (size_t len = 0; len < w.size(); ++len) {
    BufferReader r(Slice(w.buffer().data(), len));
    EXPECT_FALSE(DecodeUdfInfo(&r).ok());
  }
}

TEST(ProtocolTest, LargeFrameSurvivesTinySocketBuffers) {
  // A 1 MiB frame through a socketpair whose buffers hold a few KB: every
  // send() is partial, so WriteFrame's WriteAll loop (and ReadFrame's
  // ReadAll) must stitch the frame back together without dropping or
  // reordering a byte — the regression this guards is a short-write of the
  // header followed by a desynchronized stream.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  int small = 4096;
  ASSERT_EQ(::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &small,
                         sizeof(small)),
            0);
  ASSERT_EQ(::setsockopt(fds[1], SOL_SOCKET, SO_RCVBUF, &small,
                         sizeof(small)),
            0);

  const std::vector<uint8_t> payload = Random(7).Bytes(1 << 20);
  std::pair<FrameType, std::vector<uint8_t>> got;
  Status read_status = Status::OK();
  std::thread reader([&] {
    auto r = ReadFrame(fds[1]);
    if (r.ok()) {
      got = std::move(*r);
    } else {
      read_status = r.status();
    }
  });
  Status write_status = WriteFrame(fds[0], FrameType::kStoreLob,
                                   Slice(payload));
  reader.join();
  ASSERT_TRUE(write_status.ok()) << write_status;
  ASSERT_TRUE(read_status.ok()) << read_status;
  EXPECT_EQ(got.first, FrameType::kStoreLob);
  EXPECT_EQ(got.second, payload);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(ProtocolTest, FramesSurviveASignalStormMidTransfer) {
  // Non-SA_RESTART signals land on the writer thread while it is blocked in
  // send(); each one makes the syscall fail with EINTR, which WriteAll must
  // absorb by retrying from the interrupted offset. The reader reassembles
  // a byte-identical frame on the other end.
  struct sigaction sa {};
  sa.sa_handler = [](int) {};
  sa.sa_flags = 0;  // deliberately no SA_RESTART: force EINTR
  struct sigaction old {};
  ASSERT_EQ(::sigaction(SIGUSR1, &sa, &old), 0);

  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  int small = 4096;
  ASSERT_EQ(::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &small,
                         sizeof(small)),
            0);

  const std::vector<uint8_t> payload = Random(11).Bytes(1 << 20);
  std::pair<FrameType, std::vector<uint8_t>> got;
  Status read_status = Status::OK();
  std::thread reader([&] {
    auto r = ReadFrame(fds[1]);
    if (r.ok()) {
      got = std::move(*r);
    } else {
      read_status = r.status();
    }
  });

  std::atomic<bool> writing{true};
  Status write_status = Status::OK();
  std::thread writer([&] {
    write_status = WriteFrame(fds[0], FrameType::kLobData, Slice(payload));
    writing = false;
  });
  // Pepper the writer with signals for as long as the transfer is running.
  while (writing.load()) {
    ::pthread_kill(writer.native_handle(), SIGUSR1);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  writer.join();
  reader.join();
  ASSERT_TRUE(write_status.ok()) << write_status;
  ASSERT_TRUE(read_status.ok()) << read_status;
  EXPECT_EQ(got.first, FrameType::kLobData);
  EXPECT_EQ(got.second, payload);
  ::close(fds[0]);
  ::close(fds[1]);
  ASSERT_EQ(::sigaction(SIGUSR1, &old, nullptr), 0);
}

class NetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = Database::Open(path_).value();
    server_ = std::make_unique<Server>(db_.get());
    ASSERT_TRUE(server_->Start(0).ok());
    client_ = Client::Connect("127.0.0.1", server_->port()).value();
  }
  void TearDown() override {
    client_.reset();
    server_->Stop();
    server_.reset();
    db_.reset();
  }

  TempDb db_file_{"net"};
  std::string path_ = db_file_.path();
  std::unique_ptr<Database> db_;
  std::unique_ptr<Server> server_;
  std::unique_ptr<Client> client_;
};

TEST_F(NetTest, PingAndSql) {
  ASSERT_TRUE(client_->Ping().ok());
  ASSERT_TRUE(client_->Execute("CREATE TABLE t (a INT, s STRING)").ok());
  ASSERT_TRUE(client_->Execute("INSERT INTO t VALUES (1,'x'), (2,'y')").ok());
  QueryResult r = client_->Execute("SELECT a FROM t WHERE s = 'y'").value();
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].value(0).AsInt(), 2);
  EXPECT_GE(server_->requests_served(), 4u);
}

TEST_F(NetTest, SqlErrorsCrossTheWire) {
  Result<QueryResult> r = client_->Execute("SELECT * FROM missing");
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_NE(r.status().message().find("missing"), std::string::npos);
  EXPECT_TRUE(client_->Execute("NOT SQL AT ALL").status().IsInvalidArgument());
}

TEST_F(NetTest, MultipleClientsShareTheServer) {
  auto client2 = Client::Connect("127.0.0.1", server_->port()).value();
  ASSERT_TRUE(client_->Execute("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(client2->Execute("INSERT INTO t VALUES (7)").ok());
  QueryResult r = client_->Execute("SELECT a FROM t").value();
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].value(0).AsInt(), 7);
}

TEST_F(NetTest, UdfMigrationFlow) {
  // The full Section 6.4 story: develop locally, test locally, migrate,
  // use from SQL.
  const char* source = R"(
class InvestVal {
  static int run(byte[] history) {
    int score = 0;
    int i = 1;
    while (i < history.length) {
      if (history[i] > history[i - 1]) { score = score + 1; }
      i = i + 1;
    }
    return (score * 100) / history.length;
  }
})";
  // 1. Local test in a client-side VM (no server round trip).
  std::vector<uint8_t> up = {1, 2, 3, 4, 5};  // strictly rising: score 4/5
  Value local = Client::TestUdfLocally(source, "InvestVal.run",
                                       {Value::Bytes(up)}, TypeId::kInt)
                    .value();
  EXPECT_EQ(local.AsInt(), 4 * 100 / 5);

  // 2. Migrate to the server.
  ASSERT_TRUE(client_
                  ->RegisterJJavaUdf("InvestVal", source, "InvestVal.run",
                                     TypeId::kInt, {TypeId::kBytes})
                  .ok());

  // 3. Use it in a server-side query; same bytecode, same answer.
  ASSERT_TRUE(client_->Execute("CREATE TABLE Stocks (sym STRING, "
                               "history BYTEARRAY)")
                  .ok());
  ASSERT_TRUE(client_->Execute("INSERT INTO Stocks VALUES "
                               "('UP', randbytes(100, 1)), "
                               "('DOWN', randbytes(100, 2))")
                  .ok());
  QueryResult r =
      client_->Execute("SELECT sym, InvestVal(history) FROM Stocks").value();
  ASSERT_EQ(r.rows.size(), 2u);
  // Cross-check row 0 against a local run on the same deterministic bytes.
  Value local_check =
      Client::TestUdfLocally(source, "InvestVal.run",
                             {Value::Bytes(Random(1).Bytes(100))},
                             TypeId::kInt)
          .value();
  EXPECT_EQ(r.rows[0].value(1).AsInt(), local_check.AsInt());

  // 4. Re-registration clashes; drop works; bad uploads are rejected.
  EXPECT_TRUE(client_
                  ->RegisterJJavaUdf("InvestVal", source, "InvestVal.run",
                                     TypeId::kInt, {TypeId::kBytes})
                  .IsAlreadyExists());
  ASSERT_TRUE(client_->DropUdf("InvestVal").ok());
  UdfInfo garbage;
  garbage.name = "bad";
  garbage.language = UdfLanguage::kJJava;
  garbage.return_type = TypeId::kInt;
  garbage.arg_types = {TypeId::kBytes};
  garbage.impl_name = "X.run";
  garbage.payload = {0xde, 0xad};
  Status upload = client_->RegisterUdf(garbage);
  EXPECT_TRUE(upload.IsVerificationError() || upload.IsCorruption())
      << upload;
}

TEST_F(NetTest, LobsOverTheWire) {
  Random rng(11);
  auto img = rng.Bytes(10000);
  int64_t handle = client_->StoreLob(img).value();
  auto clip = client_->FetchLob(handle, 5000, 100).value();
  EXPECT_EQ(clip, std::vector<uint8_t>(img.begin() + 5000,
                                       img.begin() + 5100));
  EXPECT_TRUE(client_->FetchLob(9999, 0, 1).status().IsNotFound());
}

TEST_F(NetTest, ConcurrentClientsAreSerializedSafely) {
  // PREDATOR is "a single multi-threaded process, with at least one thread
  // per connected client"; our server serializes engine access. Hammer it
  // from several threads and check nothing is lost or corrupted.
  ASSERT_TRUE(client_->Execute("CREATE TABLE log (worker INT, seq INT)").ok());
  constexpr int kWorkers = 4;
  constexpr int kOps = 25;
  std::vector<std::thread> workers;
  std::atomic<int> failures{0};
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      Result<std::unique_ptr<Client>> c =
          Client::Connect("127.0.0.1", server_->port());
      if (!c.ok()) {
        ++failures;
        return;
      }
      for (int i = 0; i < kOps; ++i) {
        if (!(*c)->Execute(StringPrintf("INSERT INTO log VALUES (%d, %d)", w,
                                        i))
                 .ok()) {
          ++failures;
        }
        Result<QueryResult> r = (*c)->Execute(
            StringPrintf("SELECT COUNT(*) FROM log WHERE worker = %d", w));
        if (!r.ok() || r->rows[0].value(0).AsInt() != i + 1) ++failures;
      }
    });
  }
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(failures.load(), 0);
  QueryResult total = client_->Execute("SELECT COUNT(*) FROM log").value();
  EXPECT_EQ(total.rows[0].value(0).AsInt(), kWorkers * kOps);
  // Every (worker, seq) pair is present exactly once.
  QueryResult pairs = client_->Execute(
      "SELECT worker, COUNT(*) FROM log GROUP BY worker").value();
  ASSERT_EQ(pairs.rows.size(), static_cast<size_t>(kWorkers));
  for (const Tuple& row : pairs.rows) {
    EXPECT_EQ(row.value(1).AsInt(), kOps);
  }
}

// ---------------------------------------------------------------------------
// Server lifecycle: Stop() vs idle and mid-query clients, ping liveness
// ---------------------------------------------------------------------------

/// Sleeps for args[0] milliseconds — a stand-in for any slow server-side
/// query, so lifecycle tests can hold the database mutex for a known time.
Status SleepMsUdf(const std::vector<Value>& args, UdfContext* ctx,
                  Value* out) {
  std::this_thread::sleep_for(std::chrono::milliseconds(args[0].AsInt()));
  *out = Value::Int(0);
  return Status::OK();
}

int64_t MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

class NetLifecycleTest : public NetTest {
 protected:
  void SetUp() override {
    NetTest::SetUp();
    static const bool registered = [] {
      NativeUdfRegistry::Global()
          ->Register({"sleep_ms_udf", TypeId::kInt, {TypeId::kInt},
                      &SleepMsUdf})
          .ok();
      return true;
    }();
    (void)registered;
    UdfInfo info;
    info.name = "sleep_ms";
    info.language = UdfLanguage::kNative;
    info.return_type = TypeId::kInt;
    info.arg_types = {TypeId::kInt};
    info.impl_name = "sleep_ms_udf";
    ASSERT_TRUE(db_->RegisterUdf(info).ok());
    ASSERT_TRUE(client_->Execute("CREATE TABLE t (a INT)").ok());
    ASSERT_TRUE(client_->Execute("INSERT INTO t VALUES (1)").ok());
  }
};

TEST_F(NetLifecycleTest, StopReturnsWithIdleAndMidQueryClients) {
  // The regression this guards: an idle client (the fixture's `client_`,
  // connected but sending nothing) used to leave its serving thread blocked
  // in ReadFrame forever, so Stop() hung on the join. Stop must wake it via
  // shutdown() and return even while a second client is mid-query.
  std::thread slow([&] {
    auto c = Client::Connect("127.0.0.1", server_->port());
    if (c.ok()) {
      // Outcome irrelevant — the connection is torn down under the query.
      (*c)->Execute("SELECT sleep_ms(400) FROM t").ok();
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  auto start = std::chrono::steady_clock::now();
  server_->Stop();
  // Bounded by the in-flight query (~300 ms left) plus slack — crucially not
  // by the idle client, which would block forever.
  EXPECT_LT(MsSince(start), 5000);
  slow.join();
}

TEST_F(NetLifecycleTest, PingAnswersDuringSlowQuery) {
  // kPing is answered before taking the database mutex, so liveness probes
  // work even while another client's query holds the engine.
  std::thread slow([&] {
    auto c = Client::Connect("127.0.0.1", server_->port());
    ASSERT_TRUE(c.ok());
    EXPECT_TRUE((*c)->Execute("SELECT sleep_ms(1500) FROM t").ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(client_->Ping().ok());
  // Well under the ~1300 ms the slow query still holds the db mutex.
  EXPECT_LT(MsSince(start), 800);
  slow.join();
}

TEST_F(NetTest, GenericUdfOverTheWire) {
  ASSERT_TRUE(client_->Execute("CREATE TABLE r (b BYTEARRAY)").ok());
  ASSERT_TRUE(
      client_->Execute("INSERT INTO r VALUES (randbytes(100, 4))").ok());
  QueryResult r =
      client_->Execute("SELECT generic_udf(b, 10, 1, 2) FROM r").value();
  EXPECT_EQ(r.rows[0].value(0).AsInt(),
            GenericUdfExpected(Random(4).Bytes(100), 10, 1, 2));
}

}  // namespace
}  // namespace net
}  // namespace jaguar
