// Real-signal process tests (fork + kill), pinning the contract that
// in-process unit tests cannot reach: the shutdown handler's escape hatch.
// The first SIGINT/SIGTERM requests a drain, and so does a repeat within
// half a second (plain `timeout` signals the process, then its group); a
// later signal hard-exits with status 130 from the async-signal-safe
// handler itself.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include "harness/shutdown.hpp"

namespace gpusim {
namespace {

/// Runs `signals` in a forked child, in its own process group with the
/// handlers installed, and returns the child's exit status: 42 when it
/// survived with a drain requested, 130 when the handler hard-exited.
template <typename Signals>
int exit_status_after(Signals signals) {
  const pid_t child = fork();
  if (child < 0) {
    ADD_FAILURE() << "fork failed";
    return -1;
  }
  if (child == 0) {
    setpgid(0, 0);
    install_shutdown_handlers();
    signals();
    _exit(shutdown_requested() ? 42 : 43);
  }
  int status = 0;
  waitpid(child, &status, 0);
  EXPECT_TRUE(WIFEXITED(status)) << "child must exit, not die on a signal";
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(ShutdownSignalTest, FirstSignalDrainsSecondSignalHardExits130) {
  // One signal: the handler sets the drain flag and the process keeps
  // running.
  EXPECT_EQ(exit_status_after([] { raise(SIGTERM); }), 42)
      << "one signal must drain, not terminate";
  // Plain `timeout -s TERM` signals the process and then its process
  // group: both deliveries are one request.
  EXPECT_EQ(exit_status_after([] {
              kill(getpid(), SIGTERM);
              kill(0, SIGTERM);
            }),
            42)
      << "a repeat within the window must not hard-exit";
  // A second signal well after the first, while the drain is still
  // pending, is the operator's escape hatch out of a wedged drain.
  EXPECT_EQ(exit_status_after([] {
              raise(SIGTERM);
              timespec past_the_window{.tv_sec = 0, .tv_nsec = 700'000'000};
              while (nanosleep(&past_the_window, &past_the_window) != 0) {
              }
              raise(SIGINT);
            }),
            130);
}

}  // namespace
}  // namespace gpusim
