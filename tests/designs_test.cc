// Tests for the UDF execution designs of Table 1 end-to-end through SQL:
// Design 1 (C++), Design 2 (IC++, forked executor over shared memory),
// Design 3 (JNI, JagVM), and the SFI variant — all running the paper's
// generic UDF and agreeing bit-for-bit. Plus unit tests for the ipc and sfi
// substrates.

#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>


#include "common/random.h"
#include "common/string_util.h"
#include "engine/database.h"
#include "ipc/remote_executor.h"
#include "jjc/jjc.h"
#include "sfi/sfi.h"
#include "temp_db.h"
#include "udf/generic_udf.h"
#include "udf/isolated_udf_runner.h"
#include "udf/jvm_udf_runner.h"
#include "udf/sfi_udf_runner.h"

namespace jaguar {
namespace {

// ---------------------------------------------------------------------------
// ipc substrate
// ---------------------------------------------------------------------------

TEST(RingChannelTest, ParentChildPingPong) {
  auto channel = ipc::Channel::Create(4096).value();
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: echo messages back with a prefix until shutdown.
    while (true) {
      auto msg = channel->ReceiveInChild();
      if (!msg.ok() || msg->first == ipc::MsgType::kShutdown) _exit(0);
      std::string text = "echo:" + Slice(msg->second).ToString();
      channel->SendToParent(ipc::MsgType::kResult, Slice(text)).ok();
    }
  }
  for (int i = 0; i < 10; ++i) {
    std::string payload = "msg" + std::to_string(i);
    ASSERT_TRUE(
        channel->SendToChild(ipc::MsgType::kRequest, Slice(payload)).ok());
    auto reply = channel->ReceiveInParent().value();
    EXPECT_EQ(reply.first, ipc::MsgType::kResult);
    EXPECT_EQ(Slice(reply.second).ToString(), "echo:" + payload);
  }
  ASSERT_TRUE(channel->SendToChild(ipc::MsgType::kShutdown, Slice()).ok());
  int status;
  waitpid(pid, &status, 0);
  EXPECT_TRUE(WIFEXITED(status));
}

TEST(RingChannelTest, OversizePayloadRejected) {
  auto channel = ipc::Channel::Create(64).value();
  std::vector<uint8_t> big(65);
  EXPECT_TRUE(channel->SendToChild(ipc::MsgType::kRequest, Slice(big))
                  .IsInvalidArgument());
  EXPECT_TRUE(channel->SendToChild(ipc::MsgType::kRequest,
                                   Slice(std::vector<uint8_t>(64)))
                  .ok());
}

TEST(RemoteExecutorTest, ExecutesRequestsAndCallbacks) {
  // Child handler: interprets the request as a count, makes that many
  // callbacks, sums the replies.
  auto handler = [](Slice request, ipc::Channel* channel) -> Status {
    BufferReader r(request);
    JAGUAR_ASSIGN_OR_RETURN(uint32_t count, r.ReadU32());
    int64_t sum = 0;
    for (uint32_t i = 0; i < count; ++i) {
      BufferWriter cb;
      cb.PutU32(i);
      JAGUAR_RETURN_IF_ERROR(
          channel->SendToParent(ipc::MsgType::kCallbackRequest, cb.AsSlice()));
      JAGUAR_ASSIGN_OR_RETURN(auto reply, channel->ReceiveInChild());
      if (reply.first != ipc::MsgType::kCallbackReply) {
        return Internal("bad reply type");
      }
      BufferReader rr((Slice(reply.second)));
      JAGUAR_ASSIGN_OR_RETURN(int64_t v, rr.ReadI64());
      sum += v;
    }
    BufferWriter out;
    out.PutI64(sum);
    return channel->SendToParent(ipc::MsgType::kResult, out.AsSlice());
  };
  auto executor = ipc::RemoteExecutor::Spawn(4096, handler).value();
  EXPECT_GT(executor->child_pid(), 0);

  int callbacks_served = 0;
  auto on_callback = [&](Slice payload) -> Result<std::vector<uint8_t>> {
    BufferReader r(payload);
    JAGUAR_ASSIGN_OR_RETURN(uint32_t i, r.ReadU32());
    ++callbacks_served;
    BufferWriter reply;
    reply.PutI64(i * 10);
    return reply.Release();
  };

  BufferWriter req;
  req.PutU32(5);
  auto result = executor->Execute(req.AsSlice(), on_callback).value();
  BufferReader r((Slice(result)));
  EXPECT_EQ(r.ReadI64().value(), (0 + 1 + 2 + 3 + 4) * 10);
  EXPECT_EQ(callbacks_served, 5);

  // Executors are reusable across requests (per query, per the paper).
  BufferWriter req2;
  req2.PutU32(2);
  ASSERT_TRUE(executor->Execute(req2.AsSlice(), on_callback).ok());
  ASSERT_TRUE(executor->Shutdown().ok());
}

TEST(RemoteExecutorTest, ChildErrorsArriveAsStatus) {
  auto handler = [](Slice request, ipc::Channel*) -> Status {
    return RuntimeError("deliberate failure in child");
  };
  auto executor = ipc::RemoteExecutor::Spawn(4096, handler).value();
  Result<std::vector<uint8_t>> r = executor->Execute(
      Slice("x"), [](Slice) -> Result<std::vector<uint8_t>> {
        return Internal("no callbacks expected");
      });
  ASSERT_TRUE(r.status().IsRuntimeError());
  EXPECT_NE(r.status().message().find("deliberate failure"),
            std::string::npos);
}

TEST(RemoteExecutorTest, DeadChildTimesOutInsteadOfHanging) {
  auto handler = [](Slice, ipc::Channel* channel) -> Status {
    return channel->SendToParent(ipc::MsgType::kResult, Slice());
  };
  auto executor = ipc::RemoteExecutor::Spawn(4096, handler).value();
  executor->channel()->set_timeout_seconds(1);
  kill(executor->child_pid(), SIGKILL);
  Result<std::vector<uint8_t>> r = executor->Execute(
      Slice("x"),
      [](Slice) -> Result<std::vector<uint8_t>> { return Internal("none"); });
  EXPECT_TRUE(r.status().IsIoError());
}

// ---------------------------------------------------------------------------
// sfi substrate
// ---------------------------------------------------------------------------

TEST(SfiRegionTest, MaskingConfinesWildAddresses) {
  auto region = sfi::SfiRegion::Create(16).value();  // 64 KB
  EXPECT_EQ(region.size(), 65536u);
  // Base is region-aligned, so OR-free masking works.
  EXPECT_EQ(reinterpret_cast<uintptr_t>(region.base()) % region.size(), 0u);

  region.StoreByte(5, 0xAB);
  EXPECT_EQ(region.LoadByte(5), 0xAB);
  // A wild 64-bit address wraps inside the sandbox instead of escaping.
  region.StoreByte(0xDEADBEEF12345678ULL, 0xCD);
  EXPECT_EQ(region.LoadByte(0xDEADBEEF12345678ULL & region.mask()), 0xCD);
  // Word accessors are 8-byte aligned within the region.
  region.StoreWord(64, -12345);
  EXPECT_EQ(region.LoadWord(64), -12345);
  EXPECT_EQ(region.LoadWord(64 + region.size()), -12345);  // wraps
}

TEST(SfiRegionTest, CopyInOutBoundsChecked) {
  auto region = sfi::SfiRegion::Create(12).value();  // 4 KB
  std::vector<uint8_t> data(100, 7);
  ASSERT_TRUE(region.CopyIn(0, data.data(), data.size()).ok());
  std::vector<uint8_t> out(100);
  ASSERT_TRUE(region.CopyOut(0, out.data(), out.size()).ok());
  EXPECT_EQ(out, data);
  EXPECT_TRUE(region.CopyIn(4000, data.data(), 100).IsInvalidArgument());
  EXPECT_TRUE(region.CopyOut(5000, out.data(), 1).IsInvalidArgument());
  EXPECT_TRUE(sfi::SfiRegion::Create(5).status().IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// All designs end-to-end through SQL
// ---------------------------------------------------------------------------

class DesignsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = Database::Open(path_, options_).value();
    MustExecute("CREATE TABLE r (b BYTEARRAY)");
    MustExecute("INSERT INTO r VALUES (randbytes(300, 21)), "
                "(randbytes(300, 22))");
  }
  void TearDown() override {
    db_.reset();
  }

  QueryResult MustExecute(const std::string& sql) {
    Result<QueryResult> r = db_->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status();
    return r.ok() ? std::move(r).value() : QueryResult{};
  }

  /// Registers the generic UDF as `name` under the given design.
  void RegisterGeneric(const std::string& name, UdfLanguage lang) {
    UdfInfo info;
    info.name = name;
    info.language = lang;
    info.return_type = TypeId::kInt;
    info.arg_types = {TypeId::kBytes, TypeId::kInt, TypeId::kInt,
                      TypeId::kInt};
    if (lang == UdfLanguage::kJJava || lang == UdfLanguage::kJJavaIsolated) {
      auto cf = jjc::Compile(GenericUdfJJavaSource()).value();
      info.impl_name = "GenericUdf.run";
      info.payload = cf.Serialize();
    } else {
      info.impl_name = "generic_udf";
    }
    ASSERT_TRUE(db_->RegisterUdf(info).ok()) << name;
  }

  DatabaseOptions options_;
  TempDb db_file_{"designs"};
  std::string path_ = db_file_.path();
  std::unique_ptr<Database> db_;
};

TEST_F(DesignsTest, AllDesignsComputeIdenticalResults) {
  RegisterGeneric("g_ic", UdfLanguage::kNativeIsolated);
  RegisterGeneric("g_jni", UdfLanguage::kJJava);
  RegisterGeneric("g_sfi", UdfLanguage::kNativeSfi);
  RegisterGeneric("g_ijni", UdfLanguage::kJJavaIsolated);  // Design 4

  const char* query_fmt = "SELECT %s(b, 50, 3, 4) FROM r";
  QueryResult native = MustExecute(StringPrintf(query_fmt, "generic_udf"));
  for (const char* name : {"g_ic", "g_jni", "g_sfi", "g_ijni"}) {
    QueryResult r = MustExecute(StringPrintf(query_fmt, name));
    ASSERT_EQ(r.rows.size(), native.rows.size()) << name;
    for (size_t i = 0; i < r.rows.size(); ++i) {
      EXPECT_TRUE(r.rows[i].value(0).Equals(native.rows[i].value(0)))
          << name << " row " << i;
    }
  }
  // Cross-check against the pure model.
  EXPECT_EQ(native.rows[0].value(0).AsInt(),
            GenericUdfExpected(Random(21).Bytes(300), 50, 3, 4));
}

TEST_F(DesignsTest, CallbacksReachTheServerFromEveryDesign) {
  RegisterGeneric("g_ic", UdfLanguage::kNativeIsolated);
  RegisterGeneric("g_jni", UdfLanguage::kJJava);
  RegisterGeneric("g_ijni", UdfLanguage::kJJavaIsolated);
  uint64_t before = db_->callbacks_served();
  MustExecute("SELECT g_ic(b, 0, 0, 5) FROM r");    // 2 rows x 5
  MustExecute("SELECT g_jni(b, 0, 0, 7) FROM r");   // 2 rows x 7
  MustExecute("SELECT g_ijni(b, 0, 0, 3) FROM r");  // 2 rows x 3: the
  // callback crosses VM boundary + process boundary + back.
  EXPECT_EQ(db_->callbacks_served() - before, 2u * 5 + 2u * 7 + 2u * 3);
}

TEST_F(DesignsTest, Design4FaultsStayInTheChild) {
  // A runtime fault in the isolated VM fails the query; both the executor
  // child and the server survive (double isolation).
  const char* bad_src = R"(
class Bad4 {
  static int run(byte[] data) { return data[9999999]; }
})";
  UdfInfo info;
  info.name = "bad4";
  info.language = UdfLanguage::kJJavaIsolated;
  info.return_type = TypeId::kInt;
  info.arg_types = {TypeId::kBytes};
  info.impl_name = "Bad4.run";
  info.payload = jjc::Compile(bad_src).value().Serialize();
  ASSERT_TRUE(db_->RegisterUdf(info).ok());
  EXPECT_TRUE(db_->Execute("SELECT bad4(b) FROM r").status().IsRuntimeError());
  // The same executor keeps serving after the fault.
  EXPECT_TRUE(db_->Execute("SELECT bad4(b) FROM r").status().IsRuntimeError());
  EXPECT_EQ(MustExecute("SELECT length(b) FROM r").rows.size(), 2u);
}

TEST_F(DesignsTest, JJavaRuntimeFaultsFailTheQueryNotTheServer) {
  // A UDF with an out-of-bounds access: the query fails cleanly and the
  // server keeps serving (the paper's core safety claim for Design 3).
  const char* bad_src = R"(
class Bad {
  static int run(byte[] data) { return data[data.length]; }
})";
  UdfInfo info;
  info.name = "bad";
  info.language = UdfLanguage::kJJava;
  info.return_type = TypeId::kInt;
  info.arg_types = {TypeId::kBytes};
  info.impl_name = "Bad.run";
  info.payload = jjc::Compile(bad_src).value().Serialize();
  ASSERT_TRUE(db_->RegisterUdf(info).ok());

  EXPECT_TRUE(db_->Execute("SELECT bad(b) FROM r").status().IsRuntimeError());
  // Server is fine.
  EXPECT_EQ(MustExecute("SELECT length(b) FROM r").rows.size(), 2u);
}

TEST_F(DesignsTest, JJavaInstructionBudgetKillsInfiniteLoops) {
  db_.reset();
  db_file_.Remove();
  options_.udf_instruction_budget = 1000000;
  db_ = Database::Open(path_, options_).value();
  MustExecute("CREATE TABLE r (b BYTEARRAY)");
  MustExecute("INSERT INTO r VALUES (zerobytes(1))");

  const char* spin_src = R"(
class Spin {
  static int run(byte[] data) {
    int x = 0;
    while (0 == 0) { x = x + 1; }
    return x;
  }
})";
  UdfInfo info;
  info.name = "spin";
  info.language = UdfLanguage::kJJava;
  info.return_type = TypeId::kInt;
  info.arg_types = {TypeId::kBytes};
  info.impl_name = "Spin.run";
  info.payload = jjc::Compile(spin_src).value().Serialize();
  ASSERT_TRUE(db_->RegisterUdf(info).ok());
  EXPECT_TRUE(db_->Execute("SELECT spin(b) FROM r")
                  .status()
                  .IsResourceExhausted());
  // The server survives the denial-of-service attempt.
  EXPECT_TRUE(db_->Execute("SELECT length(b) FROM r").ok());
}

TEST_F(DesignsTest, JJavaHeapQuotaStopsAllocationBombs) {
  db_.reset();
  db_file_.Remove();
  options_.udf_heap_quota_bytes = 4 << 20;
  db_ = Database::Open(path_, options_).value();
  MustExecute("CREATE TABLE r (b BYTEARRAY)");
  MustExecute("INSERT INTO r VALUES (zerobytes(1))");

  const char* bomb_src = R"(
class Bomb {
  static int run(byte[] data) {
    int i = 0;
    while (i < 1000000) {
      byte[] waste = new byte[1048576];
      waste[0] = 1;
      i = i + 1;
    }
    return i;
  }
})";
  UdfInfo info;
  info.name = "bomb";
  info.language = UdfLanguage::kJJava;
  info.return_type = TypeId::kInt;
  info.arg_types = {TypeId::kBytes};
  info.impl_name = "Bomb.run";
  info.payload = jjc::Compile(bomb_src).value().Serialize();
  ASSERT_TRUE(db_->RegisterUdf(info).ok());
  EXPECT_TRUE(
      db_->Execute("SELECT bomb(b) FROM r").status().IsResourceExhausted());
}

TEST_F(DesignsTest, SecurityManagerBlocksUngrantedNatives) {
  // The server offers a privileged native that UDFs are NOT granted.
  ASSERT_TRUE(db_->vm()
                  ->RegisterNative(
                      {"Server.dropAllTables",
                       jvm::Signature::Parse("()I").value(),
                       "server.admin",
                       [](jvm::NativeCallInfo* info) {
                         info->result = 1;
                         return Status::OK();
                       }})
                  .ok());
  jjc::CompileOptions copts;
  copts.native_decls["Server.dropAllTables"] = "()I";
  const char* evil_src = R"(
class Evil {
  static int run(byte[] data) { return Server.dropAllTables(); }
})";
  UdfInfo info;
  info.name = "evil";
  info.language = UdfLanguage::kJJava;
  info.return_type = TypeId::kInt;
  info.arg_types = {TypeId::kBytes};
  info.impl_name = "Evil.run";
  info.payload = jjc::Compile(evil_src, copts).value().Serialize();
  ASSERT_TRUE(db_->RegisterUdf(info).ok());
  EXPECT_TRUE(db_->Execute("SELECT evil(b) FROM r")
                  .status()
                  .IsSecurityViolation());
}

TEST_F(DesignsTest, RegistrationRejectsBadUploads) {
  UdfInfo info;
  info.name = "broken";
  info.language = UdfLanguage::kJJava;
  info.return_type = TypeId::kInt;
  info.arg_types = {TypeId::kBytes};
  info.impl_name = "X.run";
  // Garbage payload: rejected at registration, not at query time.
  info.payload = {1, 2, 3, 4};
  EXPECT_TRUE(db_->RegisterUdf(info).IsVerificationError());

  // Valid class, wrong declared signature.
  info.payload =
      jjc::Compile("class X { static int run(int a) { return a; } }")
          .value()
          .Serialize();
  EXPECT_TRUE(db_->RegisterUdf(info).IsInvalidArgument());

  // Missing entry point.
  info.payload =
      jjc::Compile("class X { static int other(byte[] b) { return 0; } }")
          .value()
          .Serialize();
  EXPECT_TRUE(db_->RegisterUdf(info).IsNotFound());
}

TEST_F(DesignsTest, JJavaFetchCallbackReadsLobs) {
  // A JJava UDF that fetches a clip of a server-side large object by handle
  // (the Clip()/Lookup() pattern of Section 5.5).
  Random rng(5);
  auto img = rng.Bytes(4096);
  int64_t handle = db_->StoreLob(img).value();

  const char* src = R"(
class ClipSum {
  static int run(int handle, int offset, int len) {
    byte[] clip = Jaguar.fetch(handle, offset, len);
    int acc = 0;
    for (int i = 0; i < clip.length; i = i + 1) { acc = acc + clip[i]; }
    return acc;
  }
})";
  UdfInfo info;
  info.name = "clipsum";
  info.language = UdfLanguage::kJJava;
  info.return_type = TypeId::kInt;
  info.arg_types = {TypeId::kInt, TypeId::kInt, TypeId::kInt};
  info.impl_name = "ClipSum.run";
  info.payload = jjc::Compile(src).value().Serialize();
  ASSERT_TRUE(db_->RegisterUdf(info).ok());

  QueryResult r = MustExecute(
      StringPrintf("SELECT clipsum(%lld, 100, 50) FROM r LIMIT 1",
                   static_cast<long long>(handle)));
  int64_t expected = 0;
  for (int i = 100; i < 150; ++i) expected += img[i];
  EXPECT_EQ(r.rows[0].value(0).AsInt(), expected);
}

TEST_F(DesignsTest, IsolatedExecutorSurvivesManyInvocations) {
  RegisterGeneric("g_ic", UdfLanguage::kNativeIsolated);
  // One executor, many invocations (amortization per Section 2.5).
  QueryResult r = MustExecute("SELECT g_ic(b, 1, 1, 1) FROM r");
  EXPECT_EQ(r.rows.size(), 2u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(MustExecute("SELECT g_ic(b, 0, 0, 0) FROM r").rows.size(), 2u);
  }
}

TEST_F(DesignsTest, BatchedExecutionMatchesScalarAndHalvesCrossings) {
  // Scalar database (the fixture's) vs a vectorized one over identical
  // data: every design must produce byte-identical rows, and the designs
  // that pay a per-invocation boundary crossing (IC++, JNI, IJNI) must pay
  // at least 2x fewer crossings in batch mode.
  auto load = [](Database* db) {
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(db->Execute(StringPrintf(
                                  "INSERT INTO r VALUES (randbytes(100, %d))",
                                  30 + i))
                      .ok());
    }
  };
  db_.reset();
  db_file_.Remove();
  db_ = Database::Open(path_, options_).value();
  MustExecute("CREATE TABLE r (b BYTEARRAY)");
  load(db_.get());
  RegisterGeneric("g_ic", UdfLanguage::kNativeIsolated);
  RegisterGeneric("g_jni", UdfLanguage::kJJava);
  RegisterGeneric("g_sfi", UdfLanguage::kNativeSfi);
  RegisterGeneric("g_ijni", UdfLanguage::kJJavaIsolated);

  TempDb batched_file("designs_batched");
  const std::string& batched_path = batched_file.path();
  DatabaseOptions batched_options = options_;
  batched_options.vectorized_execution = true;
  batched_options.batch_size = 4;
  auto batched_db = Database::Open(batched_path, batched_options).value();
  ASSERT_TRUE(batched_db->Execute("CREATE TABLE r (b BYTEARRAY)").ok());
  load(batched_db.get());
  auto register_on = [](Database* db, const std::string& name,
                        UdfLanguage lang) {
    UdfInfo info;
    info.name = name;
    info.language = lang;
    info.return_type = TypeId::kInt;
    info.arg_types = {TypeId::kBytes, TypeId::kInt, TypeId::kInt, TypeId::kInt};
    if (lang == UdfLanguage::kJJava || lang == UdfLanguage::kJJavaIsolated) {
      info.impl_name = "GenericUdf.run";
      info.payload = jjc::Compile(GenericUdfJJavaSource()).value().Serialize();
    } else {
      info.impl_name = "generic_udf";
    }
    ASSERT_TRUE(db->RegisterUdf(info).ok()) << name;
  };
  register_on(batched_db.get(), "g_ic", UdfLanguage::kNativeIsolated);
  register_on(batched_db.get(), "g_jni", UdfLanguage::kJJava);
  register_on(batched_db.get(), "g_sfi", UdfLanguage::kNativeSfi);
  register_on(batched_db.get(), "g_ijni", UdfLanguage::kJJavaIsolated);

  auto crossings = [](const QueryResult& r, const std::string& design) {
    const std::string key = design == "g_jni" ? "jvm.boundary.crossings"
                                              : "ipc.shm.messages";
    auto it = r.metrics_delta.find(key);
    return it != r.metrics_delta.end() ? it->second : uint64_t{0};
  };
  const char* query_fmt = "SELECT %s(b, 20, 3, 0) FROM r";
  for (const char* name : {"generic_udf", "g_ic", "g_jni", "g_sfi", "g_ijni"}) {
    QueryResult scalar = MustExecute(StringPrintf(query_fmt, name));
    Result<QueryResult> br =
        batched_db->Execute(StringPrintf(query_fmt, name));
    ASSERT_TRUE(br.ok()) << name << " -> " << br.status();
    const QueryResult& batched = *br;
    ASSERT_EQ(batched.rows.size(), scalar.rows.size()) << name;
    for (size_t i = 0; i < scalar.rows.size(); ++i) {
      EXPECT_EQ(Slice(batched.rows[i].Serialize()).ToString(),
                Slice(scalar.rows[i].Serialize()).ToString())
          << name << " row " << i;
    }
    if (std::string(name) == "g_ic" || std::string(name) == "g_jni" ||
        std::string(name) == "g_ijni") {
      const uint64_t per_tuple = crossings(scalar, name);
      const uint64_t per_batch = crossings(batched, name);
      EXPECT_GE(per_tuple, 2 * per_batch) << name << ": " << per_tuple
                                          << " -> " << per_batch;
      EXPECT_GT(per_batch, 0u) << name;
    }
    if (std::string(name) == "g_ic" || std::string(name) == "g_ijni") {
      // Batched requests carry >1 row per shm message; scalar never does.
      EXPECT_GE(batched.metrics_delta.count("ipc.batch_messages"), 1u) << name;
      EXPECT_EQ(scalar.metrics_delta.count("ipc.batch_messages"), 0u) << name;
    }
  }

  // Callbacks still reach the server exactly once per (row, callback) in
  // batch mode — forwarded out of the batched crossing individually.
  uint64_t before = batched_db->callbacks_served();
  Result<QueryResult> cb = batched_db->Execute("SELECT g_ic(b, 0, 0, 2) FROM r");
  ASSERT_TRUE(cb.ok()) << cb.status();
  EXPECT_EQ(batched_db->callbacks_served() - before, 10u * 2);
}

TEST_F(DesignsTest, JitToggleChangesNothingSemantically) {
  db_->vm()->set_jit_enabled(false);
  MustExecute("CREATE TABLE j (b BYTEARRAY)");
  MustExecute("INSERT INTO j VALUES (randbytes(200, 9))");
  RegisterGeneric("g_jni", UdfLanguage::kJJava);
  QueryResult r = MustExecute("SELECT g_jni(b, 25, 2, 3) FROM j");
  EXPECT_EQ(r.rows[0].value(0).AsInt(),
            GenericUdfExpected(Random(9).Bytes(200), 25, 2, 3));
  EXPECT_EQ(db_->vm()->stats().methods_jitted, 0u);
}

}  // namespace
}  // namespace jaguar
