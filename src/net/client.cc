#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/string_util.h"
#include "jjc/jjc.h"
#include "jvm/vm.h"

namespace jaguar {
namespace net {

Result<std::unique_ptr<Client>> Client::Connect(const std::string& host,
                                                uint16_t port) {
  auto client = std::unique_ptr<Client>(new Client());
  client->fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (client->fd_ < 0) return IoError("socket() failed");
  int one = 1;
  ::setsockopt(client->fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return InvalidArgument("bad IPv4 address: " + host);
  }
  if (::connect(client->fd_, reinterpret_cast<sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    return IoError(StringPrintf("connect to %s:%u failed: %s", host.c_str(),
                                port, std::strerror(errno)));
  }
  return client;
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::pair<FrameType, std::vector<uint8_t>>> Client::RoundTrip(
    FrameType type, Slice payload) {
  JAGUAR_RETURN_IF_ERROR(WriteFrame(fd_, type, payload));
  JAGUAR_ASSIGN_OR_RETURN(auto response, ReadFrame(fd_));
  if (response.first == FrameType::kError) {
    BufferReader r((Slice(response.second)));
    return DecodeStatusPayload(&r);
  }
  return response;
}

Status Client::Ping() {
  JAGUAR_ASSIGN_OR_RETURN(auto response, RoundTrip(FrameType::kPing, Slice()));
  if (response.first != FrameType::kPong) {
    return Internal("unexpected response to ping");
  }
  return Status::OK();
}

Result<QueryResult> Client::Execute(const std::string& sql) {
  JAGUAR_ASSIGN_OR_RETURN(auto response,
                          RoundTrip(FrameType::kExecuteSql, Slice(sql)));
  if (response.first != FrameType::kResultSet) {
    return Internal("unexpected response to SQL");
  }
  BufferReader r((Slice(response.second)));
  return DecodeQueryResult(&r);
}

Status Client::RegisterUdf(const UdfInfo& info) {
  BufferWriter w;
  EncodeUdfInfo(info, &w);
  JAGUAR_ASSIGN_OR_RETURN(auto response,
                          RoundTrip(FrameType::kRegisterUdf, w.AsSlice()));
  if (response.first != FrameType::kAck) {
    return Internal("unexpected response to UDF registration");
  }
  return Status::OK();
}

Status Client::DropUdf(const std::string& name) {
  JAGUAR_ASSIGN_OR_RETURN(auto response,
                          RoundTrip(FrameType::kDropUdf, Slice(name)));
  if (response.first != FrameType::kAck) {
    return Internal("unexpected response to UDF drop");
  }
  return Status::OK();
}

Status Client::RegisterJJavaUdf(const std::string& name,
                                const std::string& source,
                                const std::string& entry, TypeId return_type,
                                std::vector<TypeId> arg_types) {
  // Compile locally — the client needs no server-side toolchain access,
  // which is precisely the portability advantage of bytecode UDFs.
  JAGUAR_ASSIGN_OR_RETURN(jvm::ClassFile cf, jjc::Compile(source));
  UdfInfo info;
  info.name = name;
  info.language = UdfLanguage::kJJava;
  info.return_type = return_type;
  info.arg_types = std::move(arg_types);
  info.impl_name = entry;
  info.payload = cf.Serialize();
  return RegisterUdf(info);
}

Result<Value> Client::TestUdfLocally(const std::string& source,
                                     const std::string& entry,
                                     const std::vector<Value>& args,
                                     TypeId return_type) {
  JAGUAR_ASSIGN_OR_RETURN(jvm::ClassFile cf, jjc::Compile(source));
  size_t dot = entry.find('.');
  if (dot == std::string::npos) {
    return InvalidArgument("entry point must be 'Class.method'");
  }
  jvm::Jvm vm;
  JAGUAR_RETURN_IF_ERROR(
      vm.system_loader()->LoadClass(Slice(cf.Serialize())).status());
  jvm::SecurityManager security;  // default deny: no callbacks client-side
  jvm::ExecContext ctx(&vm, vm.system_loader(), &security, {});
  std::vector<int64_t> slots;
  for (const Value& v : args) {
    switch (v.type()) {
      case TypeId::kInt: slots.push_back(v.AsInt()); break;
      case TypeId::kBool: slots.push_back(v.AsBool() ? 1 : 0); break;
      case TypeId::kBytes: {
        JAGUAR_ASSIGN_OR_RETURN(jvm::ArrayObject * arr,
                                ctx.NewByteArray(Slice(v.AsBytes())));
        slots.push_back(reinterpret_cast<int64_t>(arr));
        break;
      }
      default:
        return NotSupported("unsupported argument type for local UDF test");
    }
  }
  JAGUAR_ASSIGN_OR_RETURN(
      int64_t raw,
      ctx.CallStatic(entry.substr(0, dot), entry.substr(dot + 1), slots));
  switch (return_type) {
    case TypeId::kInt: return Value::Int(raw);
    case TypeId::kBool: return Value::Bool(raw != 0);
    case TypeId::kBytes:
      return Value::Bytes(jvm::ExecContext::ReadByteArray(
          reinterpret_cast<const jvm::ArrayObject*>(raw)));
    default:
      return NotSupported("unsupported return type for local UDF test");
  }
}

Result<int64_t> Client::StoreLob(const std::vector<uint8_t>& data) {
  JAGUAR_ASSIGN_OR_RETURN(auto response,
                          RoundTrip(FrameType::kStoreLob, Slice(data)));
  if (response.first != FrameType::kLobHandle) {
    return Internal("unexpected response to LOB store");
  }
  BufferReader r((Slice(response.second)));
  return r.ReadI64();
}

Result<std::vector<uint8_t>> Client::FetchLob(int64_t handle, uint64_t offset,
                                              uint64_t len) {
  BufferWriter w;
  w.PutI64(handle);
  w.PutU64(offset);
  w.PutU64(len);
  JAGUAR_ASSIGN_OR_RETURN(auto response,
                          RoundTrip(FrameType::kFetchLob, w.AsSlice()));
  if (response.first != FrameType::kLobData) {
    return Internal("unexpected response to LOB fetch");
  }
  return std::move(response.second);
}

}  // namespace net
}  // namespace jaguar
