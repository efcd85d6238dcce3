// Robustness suite: hostile input at every trust boundary.
//
// The paper's premise is that UDF authors are "unknown or untrusted
// clients"; these tests throw malformed bytes at each surface an attacker
// can reach — the network protocol, uploaded class files, the assembler, and
// the IPC channel — and require clean errors, never crashes or hangs.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <thread>

#include "common/deadline.h"
#include "common/random.h"
#include "common/string_util.h"
#include "engine/database.h"
#include "ipc/remote_executor.h"
#include "jjc/jjc.h"
#include "jvm/assembler.h"
#include "jvm/class_loader.h"
#include "jvm/verifier.h"
#include "jvm/vm.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "temp_db.h"
#include "udf/builtins.h"
#include "udf/executor_pool.h"
#include "udf/generic_udf.h"
#include "udf/isolated_udf_runner.h"
#include "udf/udf.h"

#include "test_requirements.h"

namespace jaguar {
namespace {

// ---------------------------------------------------------------------------
// Network: raw garbage against a live server
// ---------------------------------------------------------------------------

class NetRobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = Database::Open(path_).value();
    server_ = std::make_unique<net::Server>(db_.get());
    ASSERT_TRUE(server_->Start(0).ok());
  }
  void TearDown() override {
    server_->Stop();
    server_.reset();
    db_.reset();
  }

  int RawConnect() {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(server_->port());
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    return fd;
  }

  TempDb db_file_{"robust"};
  std::string path_ = db_file_.path();
  std::unique_ptr<Database> db_;
  std::unique_ptr<net::Server> server_;
};

TEST_F(NetRobustnessTest, GarbageBytesDoNotKillTheServer) {
  Random rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    int fd = RawConnect();
    auto junk = rng.Bytes(1 + rng.Uniform(300));
    ::send(fd, junk.data(), junk.size(), MSG_NOSIGNAL);
    ::close(fd);
  }
  // The server still serves a well-behaved client.
  auto client = net::Client::Connect("127.0.0.1", server_->port()).value();
  EXPECT_TRUE(client->Ping().ok());
  EXPECT_TRUE(client->Execute("CREATE TABLE t (a INT)").ok());
}

TEST_F(NetRobustnessTest, OversizedFrameLengthIsRejected) {
  int fd = RawConnect();
  // Claim a 1 GB payload: the server must refuse, not allocate.
  uint8_t header[5] = {0x00, 0x00, 0x00, 0x40, 1};  // len = 0x40000000
  ::send(fd, header, sizeof(header), MSG_NOSIGNAL);
  // Connection gets dropped; new clients still work.
  char buf[8];
  ::recv(fd, buf, sizeof(buf), 0);
  ::close(fd);
  auto client = net::Client::Connect("127.0.0.1", server_->port()).value();
  EXPECT_TRUE(client->Ping().ok());
}

TEST_F(NetRobustnessTest, TruncatedRegisterUdfFrames) {
  // Valid frame envelope, malformed UdfInfo payloads of every length.
  UdfInfo info;
  info.name = "x";
  info.impl_name = "C.m";
  info.language = UdfLanguage::kJJava;
  BufferWriter w;
  net::EncodeUdfInfo(info, &w);
  auto full = w.Release();
  auto client = net::Client::Connect("127.0.0.1", server_->port()).value();
  for (size_t len = 0; len < full.size(); len += 3) {
    int fd = RawConnect();
    BufferWriter frame;
    frame.PutU32(static_cast<uint32_t>(len));
    frame.PutU8(static_cast<uint8_t>(net::FrameType::kRegisterUdf));
    frame.PutBytes(Slice(full.data(), len));
    ::send(fd, frame.buffer().data(), frame.size(), MSG_NOSIGNAL);
    auto reply = net::ReadFrame(fd);
    if (reply.ok()) {
      EXPECT_EQ(reply->first, net::FrameType::kError);
    }
    ::close(fd);
  }
  EXPECT_TRUE(client->Ping().ok());
}

TEST_F(NetRobustnessTest, DisconnectMidRequestIsHarmless) {
  for (int i = 0; i < 10; ++i) {
    int fd = RawConnect();
    uint8_t header[5] = {100, 0, 0, 0,
                         static_cast<uint8_t>(net::FrameType::kExecuteSql)};
    ::send(fd, header, sizeof(header), MSG_NOSIGNAL);  // promise 100 bytes...
    ::close(fd);                                       // ...send none
  }
  auto client = net::Client::Connect("127.0.0.1", server_->port()).value();
  EXPECT_TRUE(client->Ping().ok());
}

// ---------------------------------------------------------------------------
// Verifier: adversarial hand-built bytecode beyond what jjc can emit
// ---------------------------------------------------------------------------

jvm::ClassFile OneMethod(const std::string& sig,
                         std::vector<uint8_t> code_bytes,
                         uint16_t max_locals = 4) {
  jvm::ClassFile cf;
  cf.class_name = "Adv";
  jvm::MethodDef m;
  m.name_idx = cf.InternUtf8("f");
  m.sig_idx = cf.InternUtf8(sig);
  m.max_locals = max_locals;
  m.code = std::move(code_bytes);
  cf.methods.push_back(std::move(m));
  return cf;
}

TEST(VerifierAdversarialTest, StackDepthBombRejected) {
  // Push without bound: verifier must cap the tracked stack depth.
  jvm::CodeWriter w;
  for (int i = 0; i < 3000; ++i) w.EmitImm(jvm::Op::kIConst, i);
  w.Emit(jvm::Op::kIReturn);
  auto cf = OneMethod("()I", w.Release());
  EXPECT_TRUE(jvm::Verify(cf).status().IsVerificationError());
}

TEST(VerifierAdversarialTest, BranchLoopWithGrowingStackRejected) {
  // Loop that nets +1 stack per iteration: depths conflict at the merge.
  jvm::CodeWriter w;
  uint32_t top = w.size();
  w.EmitImm(jvm::Op::kIConst, 1);
  w.EmitA(jvm::Op::kGoto, top);
  auto cf = OneMethod("()I", w.Release());
  EXPECT_TRUE(jvm::Verify(cf).status().IsVerificationError());
}

TEST(VerifierAdversarialTest, SelfReferentialConstantPoolIndices) {
  // callnative whose constant-pool index points at a Utf8, not a NativeRef.
  jvm::ClassFile cf;
  cf.class_name = "Adv";
  uint16_t utf8 = cf.InternUtf8("not-a-ref");
  jvm::MethodDef m;
  m.name_idx = cf.InternUtf8("f");
  m.sig_idx = cf.InternUtf8("()I");
  m.max_locals = 0;
  jvm::CodeWriter w;
  w.EmitA(jvm::Op::kCallNative, utf8);
  w.Emit(jvm::Op::kIReturn);
  m.code = w.Release();
  cf.methods.push_back(std::move(m));
  EXPECT_TRUE(jvm::Verify(cf).status().IsVerificationError());
}

TEST(VerifierAdversarialTest, LocalsIndexOutOfRange) {
  jvm::CodeWriter w;
  w.EmitA(jvm::Op::kILoad, 1000);
  w.Emit(jvm::Op::kIReturn);
  auto cf = OneMethod("()I", w.Release(), /*max_locals=*/2);
  EXPECT_TRUE(jvm::Verify(cf).status().IsVerificationError());
}

TEST(VerifierAdversarialTest, RandomCodeBytesNeverCrashTheVerifier) {
  Random rng(77);
  for (int trial = 0; trial < 3000; ++trial) {
    auto cf = OneMethod("(BI)I", rng.Bytes(1 + rng.Uniform(60)));
    jvm::Verify(cf).ok();  // may pass or fail; must not crash
  }
}

TEST(VerifierAdversarialTest, GeneratedProgramsVerifyExecuteAndEnginesAgree) {
  // Structured fuzz: generate stack-valid integer programs (including div,
  // rem, dup/pop/swap), require them to verify, then execute under quotas on
  // BOTH engines and require identical outcomes — runtime traps included.
  Random rng(123);
  int executed = 0;
  for (int trial = 0; trial < 300; ++trial) {
    jvm::CodeWriter w;
    int depth = 0;
    bool local1_init = false;
    int steps = 2 + static_cast<int>(rng.Uniform(40));
    for (int s = 0; s < steps; ++s) {
      switch (rng.Uniform(12)) {
        case 0:
          w.EmitImm(jvm::Op::kIConst, rng.UniformRange(-50, 50));
          ++depth;
          break;
        case 1:
          w.EmitA(jvm::Op::kILoad, 0);
          ++depth;
          break;
        case 2:
          if (local1_init) {
            w.EmitA(jvm::Op::kILoad, 1);
            ++depth;
          }
          break;
        case 3:
          if (depth >= 1) {
            w.EmitA(jvm::Op::kIStore, 1);
            --depth;
            local1_init = true;
          }
          break;
        case 4: case 5: case 6: {
          if (depth >= 2) {
            static const jvm::Op kAlu[] = {
                jvm::Op::kIAdd, jvm::Op::kISub, jvm::Op::kIMul,
                jvm::Op::kIAnd, jvm::Op::kIOr,  jvm::Op::kIXor,
                jvm::Op::kIShl, jvm::Op::kIShr, jvm::Op::kIUShr,
                jvm::Op::kIDiv, jvm::Op::kIRem};
            w.Emit(kAlu[rng.Uniform(11)]);
            --depth;
          }
          break;
        }
        case 7:
          if (depth >= 1) w.Emit(jvm::Op::kINeg);
          break;
        case 8:
          if (depth >= 1) {
            w.Emit(jvm::Op::kDup);
            ++depth;
          }
          break;
        case 9:
          if (depth >= 1) {
            w.Emit(jvm::Op::kPop);
            --depth;
          }
          break;
        case 10:
          if (depth >= 2) w.Emit(jvm::Op::kSwap);
          break;
        case 11:
          w.EmitImm(jvm::Op::kIConst, static_cast<int64_t>(rng.Next()));
          ++depth;
          break;
      }
    }
    while (depth > 1) {
      w.Emit(jvm::Op::kPop);
      --depth;
    }
    if (depth == 0) w.EmitImm(jvm::Op::kIConst, 7);
    w.Emit(jvm::Op::kIReturn);

    auto cf = OneMethod("(I)I", w.Release(), 2);
    Result<jvm::VerifiedClass> verified = jvm::Verify(cf);
    ASSERT_TRUE(verified.ok()) << verified.status();

    int64_t arg = rng.UniformRange(-100, 100);
    Result<int64_t> outcomes[2] = {Internal("unset"), Internal("unset")};
    int idx = 0;
    for (bool jit : {false, true}) {
      jvm::JvmOptions opts;
      opts.enable_jit = jit;
      jvm::Jvm vm(opts);
      jvm::ClassLoader loader(vm.system_loader());
      ASSERT_TRUE(
          loader.DefineClass(jvm::Verify(cf).value()).ok());
      jvm::SecurityManager deny;
      jvm::ResourceLimits limits;
      limits.instruction_budget = 100000;
      limits.heap_quota_bytes = 1 << 20;
      jvm::ExecContext ctx(&vm, &loader, &deny, limits);
      outcomes[idx++] = ctx.CallStatic("Adv", "f", {arg});
    }
    ASSERT_EQ(outcomes[0].ok(), outcomes[1].ok())
        << "engines disagree on success at trial " << trial;
    if (outcomes[0].ok()) {
      ASSERT_EQ(*outcomes[0], *outcomes[1])
          << "engines disagree on value at trial " << trial;
    }
    ++executed;
  }
  EXPECT_EQ(executed, 300);
}

// ---------------------------------------------------------------------------
// Assembler: round-trips and pathological inputs
// ---------------------------------------------------------------------------

TEST(AssemblerRobustnessTest, AssembleVerifyDisassembleRoundTrip) {
  const char* src = R"(
class R
method f (BI)I locals=4
  iconst 0
  istore 2
loop:
  iload 2
  iload 1
  if_icmpge done
  iload 2
  aload 0
  iload 2
  aload 0
  arraylen
  irem
  baload
  iadd
  istore 2
  goto loop
done:
  iload 2
  ireturn
end
)";
  auto cf = jvm::Assemble(src).value();
  auto verified = jvm::Verify(cf).value();
  std::string dis = jvm::Disassemble(verified.methods[0].code);
  for (const char* mnemonic : {"baload", "irem", "if_icmpge", "goto"}) {
    EXPECT_NE(dis.find(mnemonic), std::string::npos) << mnemonic;
  }
  // Serialized class file parses back identically.
  auto reparsed = jvm::ClassFile::Parse(Slice(cf.Serialize())).value();
  EXPECT_EQ(reparsed.Serialize(), cf.Serialize());
}

TEST(AssemblerRobustnessTest, RandomTextNeverCrashes) {
  Random rng(5);
  const char* words[] = {"class",  "method", "end",   "iconst", "iload",
                         "goto",   "L1:",    "call",  "A.b",    "(I)I",
                         "99999",  "-3",     "x",     "baload", "swap"};
  for (int trial = 0; trial < 2000; ++trial) {
    std::string src;
    int lines = 1 + static_cast<int>(rng.Uniform(20));
    for (int l = 0; l < lines; ++l) {
      int tokens = static_cast<int>(rng.Uniform(4));
      for (int t = 0; t <= tokens; ++t) {
        src += words[rng.Uniform(sizeof(words) / sizeof(words[0]))];
        src += " ";
      }
      src += "\n";
    }
    jvm::Assemble(src).ok();  // must not crash
  }
}

// ---------------------------------------------------------------------------
// JagVM embedding edge cases
// ---------------------------------------------------------------------------

TEST(VmEdgeCaseTest, HugeBranchMethodCompiles) {
  // A method big enough to stress rel32 fixups and block bookkeeping.
  jvm::CodeWriter w;
  std::vector<uint32_t> gotos;
  for (int i = 0; i < 2000; ++i) {
    w.EmitImm(jvm::Op::kIConst, i);
    w.Emit(jvm::Op::kPop);
    gotos.push_back(w.EmitA(jvm::Op::kGoto, 0));
  }
  uint32_t end = w.size();
  w.EmitImm(jvm::Op::kIConst, 42);
  w.Emit(jvm::Op::kIReturn);
  // Chain each goto to the next block; the last jumps to the return.
  for (size_t i = 0; i < gotos.size(); ++i) {
    uint32_t target = i + 1 < gotos.size() ? gotos[i] + 5 + 9 : end;
    (void)target;
  }
  // Simpler: all gotos jump forward to the return.
  for (uint32_t off : gotos) w.PatchA(off, end);
  auto cf = OneMethod("()I", w.Release(), 0);
  auto verified = jvm::Verify(cf);
  ASSERT_TRUE(verified.ok()) << verified.status();

  jvm::Jvm vm;
  jvm::ClassLoader loader(vm.system_loader());
  ASSERT_TRUE(loader.DefineClass(std::move(*verified)).ok());
  jvm::SecurityManager allow = jvm::SecurityManager::AllowAll();
  jvm::ExecContext ctx(&vm, &loader, &allow, {});
  EXPECT_EQ(ctx.CallStatic("Adv", "f", {}).value(), 42);
}

// ---------------------------------------------------------------------------
// Fault injection: a hostile/crashing isolated executor (Design 2)
// ---------------------------------------------------------------------------

TEST(IsolatedRunnerFaultTest, KilledChildFailsCleanlyAndIsObservable) {
  JAGUAR_REQUIRE_FORK();
  // Section 3.2's protection argument: an isolated UDF process dying must
  // cost the server one failed invocation, nothing more — and the failure
  // must be visible in the udf.icpp metrics.
  RegisterGenericUdfs();  // the executor child resolves this by name
  auto runner = IsolatedNativeRunner::Spawn(
                    "generic_udf", TypeId::kInt,
                    {TypeId::kBytes, TypeId::kInt, TypeId::kInt, TypeId::kInt})
                    .value();
  const std::vector<Value> args = {Value::Bytes(std::vector<uint8_t>(8, 1)),
                                   Value::Int(2), Value::Int(2),
                                   Value::Int(0)};
  UdfContext ctx(nullptr);
  ASSERT_TRUE(runner->Invoke(args, &ctx).ok());  // healthy first

  obs::MetricsSnapshot before =
      obs::MetricsRegistry::Global()->Snapshot("udf.icpp.");
  runner->set_ipc_timeout_seconds(1);  // don't wait 30 s for the corpse
  ASSERT_EQ(kill(runner->child_pid(), SIGKILL), 0);
  Result<Value> dead = runner->Invoke(args, &ctx);
  EXPECT_FALSE(dead.ok());
  obs::MetricsSnapshot delta = obs::SnapshotDelta(
      before, obs::MetricsRegistry::Global()->Snapshot("udf.icpp."));
  EXPECT_GE(delta.at("udf.icpp.failures"), 1u);
  EXPECT_GE(delta.at("udf.icpp.invocations"), 1u);

  // The server recovers by spawning a fresh executor; work proceeds.
  auto fresh = IsolatedNativeRunner::Spawn(
                   "generic_udf", TypeId::kInt,
                   {TypeId::kBytes, TypeId::kInt, TypeId::kInt, TypeId::kInt})
                   .value();
  Result<Value> ok = fresh->Invoke(args, &ctx);
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(ok->type(), TypeId::kInt);
}

/// Parent-side callback handler that SIGKILLs the executor child from
/// *inside* a batched crossing — the worst possible moment.
class ChildKillingHandler : public UdfCallbackHandler {
 public:
  explicit ChildKillingHandler(pid_t victim) : victim_(victim) {}
  Result<int64_t> Callback(int64_t, int64_t arg) override {
    kill(victim_, SIGKILL);
    return arg;
  }
  Result<std::vector<uint8_t>> FetchBytes(int64_t, uint64_t,
                                          uint64_t) override {
    return Internal("unexpected fetch");
  }

 private:
  pid_t victim_;
};

TEST(IsolatedRunnerFaultTest, KilledMidBatchFailsWholeBatchAndRespawns) {
  JAGUAR_REQUIRE_FORK();
  // SIGKILL the executor while it is halfway through a batch (triggered by
  // the first row's callback). The whole batch must fail with one clean
  // error — no hang, no partial results — and the *same* runner must
  // transparently respawn a fresh executor on the next batch.
  RegisterGenericUdfs();
  auto runner = IsolatedNativeRunner::Spawn(
                    "generic_udf", TypeId::kInt,
                    {TypeId::kBytes, TypeId::kInt, TypeId::kInt, TypeId::kInt})
                    .value();
  runner->set_ipc_timeout_seconds(1);
  const pid_t doomed = runner->child_pid();
  ASSERT_GT(doomed, 0);

  // Row 0 makes one callback (which kills the child); rows 1-3 never run.
  auto row = [](int64_t callbacks) {
    return std::vector<Value>{Value::Bytes(std::vector<uint8_t>(8, 1)),
                              Value::Int(2), Value::Int(2),
                              Value::Int(callbacks)};
  };
  std::vector<std::vector<Value>> batch = {row(1), row(0), row(0), row(0)};

  ChildKillingHandler killer(doomed);
  UdfContext ctx(&killer);
  Result<std::vector<Value>> dead = runner->InvokeBatch(batch, &ctx);
  EXPECT_FALSE(dead.ok());
  EXPECT_TRUE(dead.status().IsIoError()) << dead.status();
  // The corpse was reaped; the runner knows its executor is gone.
  EXPECT_EQ(runner->child_pid(), -1);

  // Next batch: a fresh executor is forked automatically and the full batch
  // completes.
  std::vector<std::vector<Value>> clean = {row(0), row(0), row(0), row(0)};
  UdfContext ctx2(nullptr);
  Result<std::vector<Value>> revived = runner->InvokeBatch(clean, &ctx2);
  ASSERT_TRUE(revived.ok()) << revived.status();
  EXPECT_EQ(revived->size(), clean.size());
  EXPECT_GT(runner->child_pid(), 0);
  EXPECT_NE(runner->child_pid(), doomed);
}

TEST(IsolatedRunnerFaultTest, KilledChildRespawnsForTheNextScalarCall) {
  JAGUAR_REQUIRE_FORK();
  // SIGKILL the executor between scalar calls: the next call fails cleanly
  // and the one after it runs on a fresh child of the same runner.
  RegisterGenericUdfs();
  auto runner = IsolatedNativeRunner::Spawn(
                    "generic_udf", TypeId::kInt,
                    {TypeId::kBytes, TypeId::kInt, TypeId::kInt, TypeId::kInt})
                    .value();
  runner->set_ipc_timeout_seconds(1);
  const std::vector<Value> args = {Value::Bytes(std::vector<uint8_t>(8, 1)),
                                   Value::Int(2), Value::Int(2),
                                   Value::Int(0)};
  UdfContext ctx(nullptr);
  ASSERT_TRUE(runner->Invoke(args, &ctx).ok());

  const pid_t doomed = runner->child_pid();
  ASSERT_GT(doomed, 0);
  ASSERT_EQ(kill(doomed, SIGKILL), 0);
  Result<Value> dead = runner->Invoke(args, &ctx);
  EXPECT_FALSE(dead.ok());

  Result<Value> revived = runner->Invoke(args, &ctx);
  ASSERT_TRUE(revived.ok()) << revived.status();
  EXPECT_NE(runner->child_pid(), doomed);
}

TEST(ExecutorPoolTeardownTest, DtorReapsLeasedOrphanChildren) {
  JAGUAR_REQUIRE_FORK();
  // A pool destroyed while a lease is still outstanding (a worker thread
  // wedged, a runner torn down out of order) must not leave the leased
  // child running as a zombie-in-waiting: the dtor SIGKILLs and reaps every
  // registered-but-not-idle executor and counts it.
  auto spawn = []() {
    return ipc::RemoteExecutor::Spawn(
        1024,
        [](Slice request, ipc::Channel* channel) -> Status {
          return channel->SendToParent(ipc::MsgType::kResult, request);
        });
  };
  obs::MetricsSnapshot before =
      obs::MetricsRegistry::Global()->Snapshot("udf.pool.");

  pid_t leased_pid = -1;
  {
    ExecutorPool::Lease orphan;
    {
      ExecutorPool pool(spawn, 2);
      auto lease = pool.Acquire();
      ASSERT_TRUE(lease.ok());
      leased_pid = (*lease)->child_pid();
      ASSERT_GT(leased_pid, 0);
      orphan = std::move(*lease);
    }  // pool dies with the lease outstanding
    // The child was SIGKILLed *and reaped* by the pool dtor: not a zombie,
    // not a live orphan — the pid is simply gone.
    EXPECT_EQ(kill(leased_pid, 0), -1);
    EXPECT_EQ(errno, ESRCH);
  }  // the orphaned lease settles after the pool: must be a harmless no-op

  obs::MetricsSnapshot delta = obs::SnapshotDelta(
      before, obs::MetricsRegistry::Global()->Snapshot("udf.pool."));
  ASSERT_TRUE(delta.count("udf.pool.orphans"));
  EXPECT_GE(delta.at("udf.pool.orphans"), 1u);
}

// ---------------------------------------------------------------------------
// The ring's payload limit and a dying executor child (Design 2)
// ---------------------------------------------------------------------------

int64_t ElapsedMs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - since)
      .count();
}

/// Registers the native function `impl` as the IC++ UDF `name`.
void RegisterIsolated(Database* db, const std::string& name,
                      const std::string& impl, TypeId return_type,
                      std::vector<TypeId> arg_types) {
  UdfInfo info;
  info.name = name;
  info.language = UdfLanguage::kNativeIsolated;
  info.return_type = return_type;
  info.arg_types = std::move(arg_types);
  info.impl_name = impl;
  ASSERT_TRUE(db->RegisterUdf(info).ok());
}

/// Fetches `args[1]` bytes of large object `args[0]` through the callback
/// path and returns how many arrived.
Status FetchLengthUdf(const std::vector<Value>& args, UdfContext* ctx,
                      Value* out) {
  JAGUAR_ASSIGN_OR_RETURN(
      std::vector<uint8_t> bytes,
      ctx->FetchBytes(args[0].AsInt(), 0,
                      static_cast<uint64_t>(args[1].AsInt())));
  *out = Value::Int(static_cast<int64_t>(bytes.size()));
  return Status::OK();
}

/// Calls abort() when its argument is 1 (without leaving a core file), and
/// otherwise returns the argument.
Status AbortOnOneUdf(const std::vector<Value>& args, UdfContext* ctx,
                     Value* out) {
  if (args[0].AsInt() == 1) {
    struct rlimit no_core = {0, 0};
    ::setrlimit(RLIMIT_CORE, &no_core);
    std::abort();
  }
  *out = args[0];
  return Status::OK();
}

void RegisterRingTestUdfs() {
  static const bool registered = [] {
    NativeUdfRegistry* reg = NativeUdfRegistry::Global();
    reg->Register({"fetch_length_udf", TypeId::kInt,
                   {TypeId::kInt, TypeId::kInt}, &FetchLengthUdf})
        .ok();
    reg->Register({"abort_on_one_udf", TypeId::kInt, {TypeId::kInt},
                   &AbortOnOneUdf})
        .ok();
    return true;
  }();
  (void)registered;
}

/// Rows of `sql` over 300 rows of `t (a INT)`, run tuple at a time or with
/// 256-row batches, through the IC++ registration `zb` of the builtin
/// `zerobytes`.
std::vector<std::string> ZeroBytesRows(bool vectorized,
                                       const std::string& sql) {
  TempDb db_file(vectorized ? "ring_limit_batched" : "ring_limit_tuple");
  DatabaseOptions options;
  options.vectorized_execution = vectorized;
  auto db = Database::Open(db_file.path(), options).value();
  EXPECT_TRUE(db->Execute("CREATE TABLE t (a INT)").ok());
  for (int i = 0; i < 300; i += 50) {
    std::string insert = "INSERT INTO t VALUES ";
    for (int j = i; j < i + 50; ++j) {
      insert += StringPrintf(j == i ? "(%d)" : ", (%d)", j);
    }
    EXPECT_TRUE(db->Execute(insert).ok());
  }
  RegisterIsolated(db.get(), "zb", "zerobytes", TypeId::kBytes,
                   {TypeId::kInt});
  Result<QueryResult> r = db->Execute(sql);
  EXPECT_TRUE(r.ok()) << (vectorized ? "batched: " : "tuple: ") << r.status();
  std::vector<std::string> rows;
  if (r.ok()) {
    for (const Tuple& row : r->rows) {
      rows.push_back(Slice(row.Serialize()).ToString());
    }
  }
  return rows;
}

TEST(RingPayloadLimitTest, BatchedResultsOverTheLimitMatchTupleAtATime) {
  JAGUAR_REQUIRE_FORK();
  // 256 results of about 10 KB are 2.5 MB, over the 1 MB payload limit:
  // the batch's results come back as several frames, in row order.
  const std::string sql = "SELECT a, length(zb(10000)), zb(9990 + a) FROM t";
  std::vector<std::string> tuple = ZeroBytesRows(false, sql);
  std::vector<std::string> batched = ZeroBytesRows(true, sql);
  ASSERT_EQ(tuple.size(), 300u);
  EXPECT_TRUE(tuple == batched);
}

TEST(RingPayloadLimitTest, OversizedResultValueFailsFastAndKeepsTheChild) {
  JAGUAR_REQUIRE_FORK();
  RegisterBuiltinUdfs();
  auto runner =
      IsolatedNativeRunner::Spawn("zerobytes", TypeId::kBytes, {TypeId::kInt})
          .value();
  const pid_t child = runner->child_pid();
  ASSERT_GT(child, 0);
  obs::MetricsSnapshot before =
      obs::MetricsRegistry::Global()->Snapshot("udf.pool.");
  UdfContext ctx(nullptr);
  auto start = std::chrono::steady_clock::now();
  Result<Value> big = runner->Invoke({Value::Int(2000000)}, &ctx);
  EXPECT_LT(ElapsedMs(start), 1000);
  EXPECT_TRUE(big.status().IsInvalidArgument()) << big.status();
  EXPECT_EQ(runner->child_pid(), child);
  obs::MetricsSnapshot delta = obs::SnapshotDelta(
      before, obs::MetricsRegistry::Global()->Snapshot("udf.pool."));
  EXPECT_EQ(delta.count("udf.pool.discards"), 0u);

  Result<Value> small = runner->Invoke({Value::Int(1000)}, &ctx);
  ASSERT_TRUE(small.ok()) << small.status();
  EXPECT_EQ(small->AsBytes().size(), 1000u);
  EXPECT_EQ(runner->child_pid(), child);
}

TEST(RingPayloadLimitTest, OversizedFetchReplyLeavesTheNextStatementFast) {
  JAGUAR_REQUIRE_FORK();
  RegisterRingTestUdfs();
  TempDb db_file("ring_limit_fetch");
  auto db = Database::Open(db_file.path()).value();
  const int64_t handle =
      db->StoreLob(std::vector<uint8_t>(2000000, 7)).value();
  ASSERT_TRUE(db->Execute("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(db->Execute("INSERT INTO t VALUES (1)").ok());
  RegisterIsolated(db.get(), "fl", "fetch_length_udf", TypeId::kInt,
                   {TypeId::kInt, TypeId::kInt});

  auto fetch = [&](int64_t len) {
    return db->Execute(StringPrintf("SELECT fl(%lld, %lld) FROM t",
                                    static_cast<long long>(handle),
                                    static_cast<long long>(len)));
  };
  Result<QueryResult> big = fetch(2000000);
  EXPECT_TRUE(big.status().IsInvalidArgument()) << big.status();

  // The child got an error in place of the reply, so it is in step: the
  // next statement is served at once by the same executor.
  auto start = std::chrono::steady_clock::now();
  Result<QueryResult> small = fetch(1000);
  EXPECT_LT(ElapsedMs(start), 2000);
  ASSERT_TRUE(small.ok()) << small.status();
  EXPECT_EQ(small->rows[0].value(0).AsInt(), 1000);
}

TEST(RingPipelineTest, FailedChunkLeavesNoStaleResultForTheNextCall) {
  JAGUAR_REQUIRE_FORK();
  // Two 600 KB rows are two chunks under the 1 MB payload limit, so the
  // second is already in flight when the first fails. The executor is then
  // out of step with its child; the next call must still get its own result.
  RegisterBuiltinUdfs();
  auto runner = IsolatedNativeRunner::Spawn("byte_at", TypeId::kInt,
                                            {TypeId::kBytes, TypeId::kInt})
                    .value();
  UdfContext ctx(nullptr);
  const std::vector<std::vector<Value>> batch = {
      {Value::Bytes(std::vector<uint8_t>(600000, 7)), Value::Int(-1)},
      {Value::Bytes(std::vector<uint8_t>(600000, 7)), Value::Int(0)}};
  Result<std::vector<Value>> failed = runner->InvokeBatch(batch, &ctx);
  EXPECT_TRUE(failed.status().IsRuntimeError()) << failed.status();

  Result<Value> next = runner->Invoke(
      {Value::Bytes(std::vector<uint8_t>(16, 9)), Value::Int(0)}, &ctx);
  ASSERT_TRUE(next.ok()) << next.status();
  EXPECT_EQ(next->AsInt(), 9);
}

TEST(RingPeerDeathTest, AbortingUdfFailsWithinAParkSlice) {
  JAGUAR_REQUIRE_FORK();
  // With the default 30 s silent-peer timeout, a child that dies mid-call
  // is noticed between park slices, not when the timeout runs out.
  RegisterRingTestUdfs();
  TempDb db_file("ring_peer_death");
  auto db = Database::Open(db_file.path()).value();
  ASSERT_TRUE(db->Execute("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(db->Execute("INSERT INTO t VALUES (1)").ok());
  RegisterIsolated(db.get(), "die", "abort_on_one_udf", TypeId::kInt,
                   {TypeId::kInt});

  auto start = std::chrono::steady_clock::now();
  Result<QueryResult> dead = db->Execute("SELECT die(a) FROM t");
  EXPECT_LT(ElapsedMs(start), 2000);
  EXPECT_TRUE(dead.status().IsIoError()) << dead.status();
  EXPECT_NE(dead.status().message().find("signal 6"), std::string::npos)
      << dead.status();

  // The same registration's runner forks a fresh child for the next query.
  Result<QueryResult> ok = db->Execute("SELECT die(a - 1) FROM t");
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(ok->rows[0].value(0).AsInt(), 0);
}

// ---------------------------------------------------------------------------
// Query deadlines: runaway-UDF termination and quarantine
// ---------------------------------------------------------------------------

/// A hostile native UDF that never returns — the exact scenario Table 1's
/// security column is about. Under the integrated C++ design this would wedge
/// the server forever (documented, by design); under IC++/IJNI the parent's
/// watchdog SIGKILLs the executor child when the deadline passes.
Status SpinForeverUdf(const std::vector<Value>& args, UdfContext* ctx,
                      Value* out) {
  volatile uint64_t sink = 0;
  for (;;) sink = sink + 1;
}

void RegisterSpinUdf() {
  static const bool registered = [] {
    NativeUdfRegistry::Global()
        ->Register({"spin_forever_udf", TypeId::kInt, {TypeId::kInt},
                    &SpinForeverUdf})
        .ok();
    return true;
  }();
  (void)registered;
}

/// SnapshotDelta drops unchanged entries, so a missing key means "zero".
uint64_t DeltaOf(const obs::MetricsSnapshot& delta, const std::string& name) {
  auto it = delta.find(name);
  return it == delta.end() ? 0 : it->second;
}

class DeadlineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RegisterSpinUdf();
  }
  void TearDown() override {
    db_.reset();
  }

  void Open() {
    db_ = Database::Open(path_, options_).value();
    ASSERT_TRUE(db_->Execute("CREATE TABLE t (a INT)").ok());
    ASSERT_TRUE(db_->Execute("INSERT INTO t VALUES (1)").ok());
  }

  /// Registers the spinning native UDF as `name` under `lang` (kNative or
  /// kNativeIsolated).
  void RegisterSpin(const std::string& name, UdfLanguage lang) {
    UdfInfo info;
    info.name = name;
    info.language = lang;
    info.return_type = TypeId::kInt;
    info.arg_types = {TypeId::kInt};
    info.impl_name = "spin_forever_udf";
    ASSERT_TRUE(db_->RegisterUdf(info).ok());
  }

  /// Registers an infinite-loop JJava UDF as `name` under kJJava or
  /// kJJavaIsolated.
  void RegisterJJavaSpin(const std::string& name, UdfLanguage lang) {
    const char* spin_src = R"(
class DSpin {
  static int run(int a) {
    int x = 0;
    while (0 == 0) { x = x + 1; }
    return x;
  }
})";
    UdfInfo info;
    info.name = name;
    info.language = lang;
    info.return_type = TypeId::kInt;
    info.arg_types = {TypeId::kInt};
    info.impl_name = "DSpin.run";
    info.payload = jjc::Compile(spin_src).value().Serialize();
    ASSERT_TRUE(db_->RegisterUdf(info).ok());
  }

  DatabaseOptions options_;
  TempDb db_file_{"deadline"};
  std::string path_ = db_file_.path();
  std::unique_ptr<Database> db_;
};

TEST_F(DeadlineTest, WatchdogKillsRunawayIsolatedNativeUdf) {
  JAGUAR_REQUIRE_FORK();
  // The tentpole scenario: an IC++ UDF that loops forever is SIGKILLed by
  // the watchdog within query_timeout_ms + one 100 ms watchdog tick, the
  // query fails with DeadlineExceeded (NOT IoError — the child did not die
  // on its own), and the pool respawns for the next query.
  options_.query_timeout_ms = 300;
  Open();
  RegisterSpin("spin", UdfLanguage::kNativeIsolated);
  RegisterGenericUdfs();
  UdfInfo healthy;
  healthy.name = "g_ic";
  healthy.language = UdfLanguage::kNativeIsolated;
  healthy.return_type = TypeId::kInt;
  healthy.arg_types = {TypeId::kBytes, TypeId::kInt, TypeId::kInt,
                       TypeId::kInt};
  healthy.impl_name = "generic_udf";
  ASSERT_TRUE(db_->RegisterUdf(healthy).ok());

  obs::MetricsSnapshot before = obs::MetricsRegistry::Global()->Snapshot();
  auto start = std::chrono::steady_clock::now();
  Result<QueryResult> dead = db_->Execute("SELECT spin(a) FROM t");
  const int64_t elapsed = ElapsedMs(start);
  EXPECT_TRUE(dead.status().IsDeadlineExceeded()) << dead.status();
  // 300 ms deadline + 100 ms watchdog tick + generous scheduling slack.
  EXPECT_LT(elapsed, 3000) << "watchdog took too long";
  obs::MetricsSnapshot delta = obs::SnapshotDelta(
      before, obs::MetricsRegistry::Global()->Snapshot());
  EXPECT_GE(DeltaOf(delta, "udf.watchdog.kills"), 1u);
  EXPECT_GE(DeltaOf(delta, "exec.deadline.exceeded"), 1u);
  EXPECT_GE(DeltaOf(delta, "exec.deadline.queries"), 1u);

  // The pool respawned a fresh child: the same query times out cleanly again
  // (a dead, never-respawned executor would surface as IoError instead).
  Result<QueryResult> again = db_->Execute("SELECT spin(a) FROM t");
  EXPECT_TRUE(again.status().IsDeadlineExceeded()) << again.status();

  // Other isolated executors were never touched by the kills: a healthy
  // IC++ UDF still runs to completion on its own pool.
  Result<QueryResult> ok =
      db_->Execute("SELECT g_ic(zerobytes(8), 2, 1, 0) FROM t");
  ASSERT_TRUE(ok.ok()) << ok.status();
  ASSERT_EQ(ok->rows.size(), 1u);
}

TEST_F(DeadlineTest, WatchdogKillsRunawayUdfInsideAggregate) {
  JAGUAR_REQUIRE_FORK();
  // A runaway UDF inside an aggregate argument, on the parallel aggregation
  // path: morsel workers each lease a pooled executor, the watchdog SIGKILLs
  // the wedged children at the deadline, and the whole aggregate fails with
  // DeadlineExceeded — without leaking pool executors or poisoning the pool
  // for later queries.
  options_.query_timeout_ms = 300;
  options_.vectorized_execution = true;
  options_.batch_size = 8;
  options_.num_workers = 2;
  Open();
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(
        db_->Execute(StringPrintf("INSERT INTO t VALUES (%d)", i)).ok());
  }
  RegisterSpin("spin", UdfLanguage::kNativeIsolated);

  obs::MetricsSnapshot before = obs::MetricsRegistry::Global()->Snapshot();
  auto start = std::chrono::steady_clock::now();
  Result<QueryResult> dead = db_->Execute("SELECT SUM(spin(a)) FROM t");
  const int64_t elapsed = ElapsedMs(start);
  EXPECT_TRUE(dead.status().IsDeadlineExceeded()) << dead.status();
  EXPECT_LT(elapsed, 3000) << "watchdog took too long";
  obs::MetricsSnapshot delta = obs::SnapshotDelta(
      before, obs::MetricsRegistry::Global()->Snapshot());
  EXPECT_GE(DeltaOf(delta, "udf.watchdog.kills"), 1u);
  EXPECT_GE(DeltaOf(delta, "exec.deadline.exceeded"), 1u);

  // GROUP BY with the runaway in the key fails too — DeadlineExceeded, or
  // SecurityViolation if the strikes from the parallel workers' kills have
  // already tripped the quarantine.
  Result<QueryResult> grouped =
      db_->Execute("SELECT spin(a), COUNT(*) FROM t GROUP BY spin(a)");
  EXPECT_FALSE(grouped.ok());
  EXPECT_TRUE(grouped.status().IsDeadlineExceeded() ||
              grouped.status().IsSecurityViolation())
      << grouped.status();

  // The pool is intact: a UDF-free aggregate and a healthy isolated UDF
  // both complete (leaked leases would wedge Acquire, dead never-respawned
  // children would surface as IoError).
  Result<QueryResult> count = db_->Execute("SELECT COUNT(*), SUM(a) FROM t");
  ASSERT_TRUE(count.ok()) << count.status();
  EXPECT_EQ(count->rows[0].value(0).AsInt(), 17);
  RegisterGenericUdfs();
  UdfInfo healthy;
  healthy.name = "g_ic";
  healthy.language = UdfLanguage::kNativeIsolated;
  healthy.return_type = TypeId::kInt;
  healthy.arg_types = {TypeId::kBytes, TypeId::kInt, TypeId::kInt,
                       TypeId::kInt};
  healthy.impl_name = "generic_udf";
  ASSERT_TRUE(db_->RegisterUdf(healthy).ok());
  Result<QueryResult> ok =
      db_->Execute("SELECT SUM(g_ic(zerobytes(8), 2, 1, 0)) FROM t");
  ASSERT_TRUE(ok.ok()) << ok.status();
  ASSERT_EQ(ok->rows.size(), 1u);
}

TEST_F(DeadlineTest, WatchdogKillsRunawayIsolatedJvmUdf) {
  JAGUAR_REQUIRE_FORK();
  // Design 4 (IJNI): the child's JagVM executes an unbounded JJava loop
  // (no instruction budget configured); only the parent-side watchdog can
  // stop it, by killing the whole executor process.
  options_.query_timeout_ms = 300;
  Open();
  RegisterJJavaSpin("spin4", UdfLanguage::kJJavaIsolated);

  obs::MetricsSnapshot before = obs::MetricsRegistry::Global()->Snapshot();
  auto start = std::chrono::steady_clock::now();
  Result<QueryResult> dead = db_->Execute("SELECT spin4(a) FROM t");
  const int64_t elapsed = ElapsedMs(start);
  EXPECT_TRUE(dead.status().IsDeadlineExceeded()) << dead.status();
  EXPECT_LT(elapsed, 3000);
  obs::MetricsSnapshot delta = obs::SnapshotDelta(
      before, obs::MetricsRegistry::Global()->Snapshot());
  EXPECT_GE(DeltaOf(delta, "udf.watchdog.kills"), 1u);
  EXPECT_GE(DeltaOf(delta, "exec.deadline.exceeded"), 1u);

  // Server (and a fresh executor) keep working.
  Result<QueryResult> ok = db_->Execute("SELECT a FROM t");
  ASSERT_TRUE(ok.ok()) << ok.status();
}

TEST_F(DeadlineTest, InterpreterStopsInProcessJJavaAtDeadline) {
  // Design 3 (JNI): the in-process JagVM is cooperative — the interpreter
  // polls the wall clock every 64Ki bytecodes, so a busy loop stops within
  // a millisecond of expiry with DeadlineExceeded even though no instruction
  // budget is configured.
  options_.query_timeout_ms = 200;
  Open();
  db_->vm()->set_jit_enabled(false);
  RegisterJJavaSpin("spin3", UdfLanguage::kJJava);

  auto start = std::chrono::steady_clock::now();
  Result<QueryResult> dead = db_->Execute("SELECT spin3(a) FROM t");
  const int64_t elapsed = ElapsedMs(start);
  EXPECT_TRUE(dead.status().IsDeadlineExceeded()) << dead.status();
  EXPECT_LT(elapsed, 2000);
  EXPECT_TRUE(db_->Execute("SELECT a FROM t").ok());
}

TEST_F(DeadlineTest, JitBudgetProbeStopsInProcessJJavaAtDeadline) {
  // JIT-compiled code cannot poll a clock mid-loop; with no configured
  // budget, the deadline caps the budget to a deliberately generous
  // instructions-per-ms probe, so the loop traps on the budget check and the
  // trap is attributed to the (by then expired) deadline.
  options_.query_timeout_ms = 100;
  Open();
  db_->vm()->set_jit_enabled(true);
  RegisterJJavaSpin("spinjit", UdfLanguage::kJJava);

  Result<QueryResult> dead = db_->Execute("SELECT spinjit(a) FROM t");
  EXPECT_TRUE(dead.status().IsDeadlineExceeded()) << dead.status();
  EXPECT_TRUE(db_->Execute("SELECT a FROM t").ok());
}

TEST_F(DeadlineTest, SetTimeoutOverridesAndClears) {
  Open();  // no open-time timeout
  RegisterSpin("spin", UdfLanguage::kNativeIsolated);

  QueryResult set = db_->Execute("SET TIMEOUT 250").value();
  EXPECT_NE(set.message.find("250"), std::string::npos);
  Result<QueryResult> dead = db_->Execute("SELECT spin(a) FROM t");
  EXPECT_TRUE(dead.status().IsDeadlineExceeded()) << dead.status();

  QueryResult cleared = db_->Execute("SET TIMEOUT 0").value();
  EXPECT_NE(cleared.message.find("cleared"), std::string::npos);
  // Back to unbounded: ordinary statements run with no deadline armed.
  obs::MetricsSnapshot before = obs::MetricsRegistry::Global()->Snapshot();
  EXPECT_TRUE(db_->Execute("SELECT a FROM t").ok());
  obs::MetricsSnapshot delta = obs::SnapshotDelta(
      before, obs::MetricsRegistry::Global()->Snapshot());
  EXPECT_EQ(DeltaOf(delta, "exec.deadline.queries"), 0u);
}

TEST_F(DeadlineTest, QuarantineDisablesRepeatOffenderUntilReRegistered) {
  // Three consecutive watchdog kills trip the quarantine: the fourth query
  // is refused outright (SecurityViolation, no child is even spawned), and
  // re-registering the UDF clears the verdict.
  options_.query_timeout_ms = 250;
  Open();
  RegisterSpin("spin", UdfLanguage::kNativeIsolated);

  obs::MetricsSnapshot before = obs::MetricsRegistry::Global()->Snapshot();
  for (int i = 0; i < 3; ++i) {
    Result<QueryResult> dead = db_->Execute("SELECT spin(a) FROM t");
    EXPECT_TRUE(dead.status().IsDeadlineExceeded()) << i << dead.status();
  }
  obs::MetricsSnapshot delta = obs::SnapshotDelta(
      before, obs::MetricsRegistry::Global()->Snapshot());
  EXPECT_EQ(DeltaOf(delta, "udf.quarantine.trips"), 1u);
  EXPECT_GE(DeltaOf(delta, "udf.quarantine.strikes"), 3u);

  Result<QueryResult> refused = db_->Execute("SELECT spin(a) FROM t");
  EXPECT_TRUE(refused.status().IsSecurityViolation()) << refused.status();
  EXPECT_NE(refused.status().message().find("quarantined"), std::string::npos);

  // Re-registration is the explicit re-enable gesture.
  ASSERT_TRUE(db_->DropUdf("spin").ok());
  RegisterSpin("spin", UdfLanguage::kNativeIsolated);
  Result<QueryResult> back = db_->Execute("SELECT spin(a) FROM t");
  EXPECT_TRUE(back.status().IsDeadlineExceeded()) << back.status();
}

TEST(QueryDeadlineTest, TokenSemantics) {
  QueryDeadline inactive;
  EXPECT_FALSE(inactive.active());
  EXPECT_FALSE(inactive.Expired());
  EXPECT_TRUE(inactive.Check().ok());
  EXPECT_TRUE(QueryDeadline::After(0).Check().ok());
  EXPECT_FALSE(QueryDeadline::After(0).active());
  EXPECT_TRUE(CheckDeadline(nullptr).ok());

  QueryDeadline soon = QueryDeadline::After(30);
  EXPECT_TRUE(soon.active());
  EXPECT_EQ(soon.timeout_ms(), 30);
  EXPECT_TRUE(soon.Check().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EXPECT_TRUE(soon.Expired());
  EXPECT_TRUE(soon.Check().IsDeadlineExceeded());
  EXPECT_LE(soon.RemainingNanos(), 0);
}

TEST(VmEdgeCaseTest, ZeroLengthArraysEverywhere) {
  jvm::Jvm vm;
  auto cf = jvm::Assemble(R"(
class Z
method len (B)I
  aload 0
  arraylen
  ireturn
end
method sum (B)I locals=3
  iconst 0
  istore 1
  iconst 0
  istore 2
loop:
  iload 2
  aload 0
  arraylen
  if_icmpge done
  iload 1
  aload 0
  iload 2
  baload
  iadd
  istore 1
  iload 2
  iconst 1
  iadd
  istore 2
  goto loop
done:
  iload 1
  ireturn
end
)").value();
  ASSERT_TRUE(vm.system_loader()->LoadClass(Slice(cf.Serialize())).ok());
  jvm::SecurityManager allow = jvm::SecurityManager::AllowAll();
  jvm::ExecContext ctx(&vm, vm.system_loader(), &allow, {});
  auto empty = ctx.NewByteArray(Slice()).value();
  int64_t ref = reinterpret_cast<int64_t>(empty);
  EXPECT_EQ(ctx.CallStatic("Z", "len", {ref}).value(), 0);
  EXPECT_EQ(ctx.CallStatic("Z", "sum", {ref}).value(), 0);
}

}  // namespace
}  // namespace jaguar
