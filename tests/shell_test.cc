// The exit status of `jaguar_shell <db> -c "<sql>"`: a script can tell a
// failed statement from a good one by the exit status alone. Runs the built
// shell binary on a database in the build tree.

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <string>

#include "temp_db.h"
#include "test_requirements.h"

namespace jaguar {
namespace {

/// Runs the shell on `db` with one `-c` statement, output discarded, and
/// returns its exit status (-1 if it did not exit normally).
int RunShell(const std::string& db, const std::string& sql) {
  pid_t pid = ::fork();
  if (pid == 0) {
    const int null_fd = ::open("/dev/null", O_WRONLY);
    ::dup2(null_fd, STDOUT_FILENO);
    ::dup2(null_fd, STDERR_FILENO);
    ::execl(JAGUAR_SHELL_PATH, JAGUAR_SHELL_PATH, db.c_str(), "-c",
            sql.c_str(), static_cast<char*>(nullptr));
    ::_exit(127);
  }
  int wstatus = 0;
  if (pid < 0 || ::waitpid(pid, &wstatus, 0) != pid) return -1;
  return WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1;
}

TEST(ShellTest, DashCExitsNonZeroWhenTheStatementFails) {
  JAGUAR_REQUIRE_FORK();
  const std::string db = std::string(JAGUAR_SHELL_TEST_DIR) +
                         "/jaguar_shell_test_" + std::to_string(::getpid()) +
                         ".db";
  RemoveDbFiles(db);
  EXPECT_EQ(RunShell(db, "CREATE TABLE t (id INT)"), 0);
  EXPECT_EQ(RunShell(db, "SELECT * FROM t"), 0);
  EXPECT_EQ(RunShell(db, "SELECT * FROM no_such_table"), 1);
  EXPECT_EQ(RunShell(db, "SELEC * FROM t"), 1);
  RemoveDbFiles(db);
}

}  // namespace
}  // namespace jaguar
