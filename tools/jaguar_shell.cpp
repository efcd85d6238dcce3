// jaguar_shell — interactive SQL shell / script runner for a jaguar database.
//
// Usage:
//   jaguar_shell <db-path>                 interactive REPL on an embedded db
//   jaguar_shell <db-path> -c "<sql>"      run one statement and exit (exit
//                                          status 1 if the statement failed)
//   jaguar_shell --connect <host> <port>   REPL against a running server
//
// Meta-commands: \tables  \udfs  \quit

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "common/string_util.h"
#include "engine/database.h"
#include "net/client.h"

using namespace jaguar;

namespace {

enum class Outcome { kOk, kFailed, kQuit };

Outcome RunStatement(
    const std::function<Result<QueryResult>(const std::string&)>& execute,
    Database* db, const std::string& line) {
  if (line == "\\quit" || line == "\\q") return Outcome::kQuit;
  if (line == "\\tables") {
    if (db != nullptr) {
      for (const std::string& name : db->catalog()->ListTables()) {
        std::printf("%s\n", name.c_str());
      }
    } else {
      std::printf("\\tables requires an embedded database\n");
    }
    return Outcome::kOk;
  }
  if (line == "\\udfs") {
    if (db != nullptr) {
      for (const std::string& name : db->catalog()->ListUdfs()) {
        const UdfInfo* info = db->catalog()->GetUdf(name).value();
        std::printf("%-24s %s\n", name.c_str(),
                    UdfLanguageToString(info->language));
      }
    } else {
      std::printf("\\udfs requires an embedded database\n");
    }
    return Outcome::kOk;
  }
  Result<QueryResult> r = execute(line);
  if (!r.ok()) {
    std::printf("error: %s\n", r.status().ToString().c_str());
    return Outcome::kFailed;
  }
  std::printf("%s", r->ToPrettyString().c_str());
  if (r->schema.num_columns() == 0) std::printf("\n");
  return Outcome::kOk;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <db-path> [-c \"sql\"] | --connect <host> <port>\n",
                 argv[0]);
    return 2;
  }

  std::unique_ptr<Database> db;
  std::unique_ptr<net::Client> client;
  std::function<Result<QueryResult>(const std::string&)> execute;

  if (std::strcmp(argv[1], "--connect") == 0) {
    if (argc < 4) {
      std::fprintf(stderr, "usage: %s --connect <host> <port>\n", argv[0]);
      return 2;
    }
    Result<std::unique_ptr<net::Client>> c =
        net::Client::Connect(argv[2], static_cast<uint16_t>(atoi(argv[3])));
    if (!c.ok()) {
      std::fprintf(stderr, "connect failed: %s\n",
                   c.status().ToString().c_str());
      return 1;
    }
    client = std::move(c).value();
    execute = [&](const std::string& sql) { return client->Execute(sql); };
  } else {
    Result<std::unique_ptr<Database>> d = Database::Open(argv[1]);
    if (!d.ok()) {
      std::fprintf(stderr, "open failed: %s\n", d.status().ToString().c_str());
      return 1;
    }
    db = std::move(d).value();
    execute = [&](const std::string& sql) { return db->Execute(sql); };
  }

  if (argc >= 4 && std::strcmp(argv[2], "-c") == 0) {
    return RunStatement(execute, db.get(), argv[3]) == Outcome::kFailed ? 1 : 0;
  }

  std::printf("jaguar shell — \\tables, \\udfs, \\quit\n");
  std::string line;
  while (true) {
    std::printf("jaguar> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    line = Trim(line);
    if (line.empty()) continue;
    if (RunStatement(execute, db.get(), line) == Outcome::kQuit) break;
  }
  return 0;
}
