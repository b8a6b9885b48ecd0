// Real-signal process tests (fork + kill), pinning the contract that
// in-process unit tests cannot reach: the shutdown handler's escape hatch.
// The first SIGINT/SIGTERM requests a drain, the second hard-exits with
// status 130 from the async-signal-safe handler itself.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "harness/shutdown.hpp"

namespace gpusim {
namespace {

int wait_for_exit(pid_t child) {
  int status = 0;
  waitpid(child, &status, 0);
  EXPECT_TRUE(WIFEXITED(status)) << "child must exit, not die on a signal";
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(ShutdownSignalTest, FirstSignalDrainsSecondSignalHardExits130) {
  // Child A: one signal only — the handler must set the drain flag and
  // let the process keep running (it exits 42 itself).
  pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    install_shutdown_handlers();
    raise(SIGTERM);
    _exit(shutdown_requested() ? 42 : 43);
  }
  EXPECT_EQ(wait_for_exit(child), 42)
      << "one signal must drain, not terminate";

  // Child B: a second signal while the drain is still pending must
  // hard-exit 130 straight from the handler — the operator's escape hatch
  // out of a wedged drain.
  child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    install_shutdown_handlers();
    raise(SIGTERM);   // drain requested
    raise(SIGINT);    // operator is done waiting: _exit(130) in the handler
    _exit(44);        // unreachable if the contract holds
  }
  EXPECT_EQ(wait_for_exit(child), 130);
}

}  // namespace
}  // namespace gpusim
