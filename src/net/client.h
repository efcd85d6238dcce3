#ifndef JAGUAR_NET_CLIENT_H_
#define JAGUAR_NET_CLIENT_H_

/// \file client.h
/// The jaguar client library — the C++ analogue of the paper's Java applet
/// client library ([PS97]): connect, run SQL, and **develop UDFs locally,
/// then migrate them to the server** (Section 6.4).
///
/// The portability loop the paper describes works like this here:
///   1. Write a JJava UDF and compile it with jjc *on the client*.
///   2. Test it in a client-side JagVM (`TestUdfLocally`) — identical
///      bytecode, identical stream interfaces.
///   3. `RegisterJJavaUdf` uploads the same class file; the server verifies
///      and registers it. Queries now run it server-side.

#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "engine/query_result.h"
#include "net/protocol.h"
#include "types/value.h"

namespace jaguar {
namespace net {

class Client {
 public:
  /// Connects to a jaguar server at host:port (host must be an IPv4 dotted
  /// quad; the examples use 127.0.0.1).
  static Result<std::unique_ptr<Client>> Connect(const std::string& host,
                                                 uint16_t port);

  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Round-trip health check.
  Status Ping();

  /// Executes one SQL statement server-side.
  Result<QueryResult> Execute(const std::string& sql);

  /// Registers an already-built UDF descriptor.
  Status RegisterUdf(const UdfInfo& info);
  Status DropUdf(const std::string& name);

  /// Compiles JJava `source` locally and uploads it under `name`.
  /// \param entry "Class.method" entry point.
  Status RegisterJJavaUdf(const std::string& name, const std::string& source,
                          const std::string& entry, TypeId return_type,
                          std::vector<TypeId> arg_types);

  /// Runs a JJava UDF entirely client-side (no server involved): the
  /// "develop and test at the client" half of the migration story. Callbacks
  /// are not available locally (there is no server); UDFs that need them
  /// must be tested against a server.
  static Result<Value> TestUdfLocally(const std::string& source,
                                      const std::string& entry,
                                      const std::vector<Value>& args,
                                      TypeId return_type);

  /// Large objects.
  Result<int64_t> StoreLob(const std::vector<uint8_t>& data);
  Result<std::vector<uint8_t>> FetchLob(int64_t handle, uint64_t offset,
                                        uint64_t len);

 private:
  Client() = default;

  Result<std::pair<FrameType, std::vector<uint8_t>>> RoundTrip(
      FrameType type, Slice payload);

  int fd_ = -1;
};

}  // namespace net
}  // namespace jaguar

#endif  // JAGUAR_NET_CLIENT_H_
