#ifndef JAGUAR_TESTS_TEMP_DB_H_
#define JAGUAR_TESTS_TEMP_DB_H_

/// \file temp_db.h
/// The test suites' one temp-database helper. A `TempDb` names a database
/// file in the temp directory (`TMPDIR`), unique to its tag and process, and
/// removes the database, its write-ahead log and the log's rewrite file
/// when it is made and again when it goes away, so a test run leaves no
/// file behind.

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>

namespace jaguar {

/// Removes the database at `path` with its write-ahead log files.
inline void RemoveDbFiles(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  std::remove((path + ".wal.tmp").c_str());
}

class TempDb {
 public:
  /// The path is `jaguar_<tag>_<pid>.db` in the temp directory; a test that
  /// keeps several databases open gives each its own tag.
  explicit TempDb(const std::string& tag)
      : path_((std::filesystem::temp_directory_path() /
               ("jaguar_" + tag + "_" + std::to_string(::getpid()) + ".db"))
                  .string()) {
    Remove();
  }
  ~TempDb() { Remove(); }
  TempDb(const TempDb&) = delete;
  TempDb& operator=(const TempDb&) = delete;

  const std::string& path() const { return path_; }
  std::string wal_path() const { return path_ + ".wal"; }

  /// Removes the database files now, e.g. before reopening from scratch.
  void Remove() const { RemoveDbFiles(path_); }

 private:
  std::string path_;
};

}  // namespace jaguar

#endif  // JAGUAR_TESTS_TEMP_DB_H_
