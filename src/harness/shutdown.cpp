#include "harness/shutdown.hpp"

#include <csignal>
#include <ctime>
#include <unistd.h>

namespace gpusim {

namespace {

/// A signal this soon after the first repeats the same request.  GNU
/// timeout signals its child and then the child's process group, so one
/// expiry delivers SIGTERM twice within microseconds.
constexpr long long kSameRequestNs = 500'000'000;

std::atomic<bool> g_shutdown{false};
/// CLOCK_MONOTONIC time of the first signal, 0 before it.
std::atomic<long long> g_first_signal_ns{0};
std::atomic<bool> g_installed{false};
static_assert(std::atomic<long long>::is_always_lock_free);

// Async-signal-safe by construction: clock_gettime, lock-free atomics and
// _exit() only.  The first signal requests the drain, and so does any
// signal within kSameRequestNs of it; a later one means the operator is
// done waiting — exit immediately with the conventional 128 + SIGINT
// status.
void on_shutdown_signal(int /*signum*/) {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  // +1: a signal at time 0 must still read as received.
  const long long now = ts.tv_sec * 1'000'000'000LL + ts.tv_nsec + 1;
  long long first = 0;
  if (g_first_signal_ns.compare_exchange_strong(first, now,
                                                std::memory_order_relaxed)) {
    g_shutdown.store(true, std::memory_order_relaxed);
  } else if (now - first >= kSameRequestNs) {
    _exit(130);
  }
}

}  // namespace

void install_shutdown_handlers() {
  if (g_installed.exchange(true)) return;
  struct sigaction sa = {};
  sa.sa_handler = on_shutdown_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: blocking syscalls return EINTR promptly
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

bool shutdown_requested() {
  return g_shutdown.load(std::memory_order_relaxed);
}

const std::atomic<bool>* shutdown_flag() { return &g_shutdown; }

void reset_shutdown_for_tests() {
  g_shutdown.store(false, std::memory_order_relaxed);
  g_first_signal_ns.store(0, std::memory_order_relaxed);
}

}  // namespace gpusim
