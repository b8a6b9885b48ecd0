// Shared batch pool and retry policy.
//
// The sweep, the chaos campaign and the JobManager fan independent units
// across threads with one scheme: workers claim pending indices from one
// atomic cursor and write results into disjoint, index-addressed slots, so
// the assembled output is identical for every worker count.  This header
// is that scheme, plus the one retry policy the sweep and the JobManager
// apply to a failed unit — any determinism argument about "who ran what
// when", or about how often a failure is retried, reduces to this file.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/sim_error.hpp"
#include "common/simstate.hpp"

namespace gpusim {

/// Worker count for `units` runnable units: jobs == 0 means one worker per
/// hardware thread, and there are never more workers than units.
inline int resolve_jobs(int jobs, std::size_t units) {
  if (jobs == 0) {
    jobs = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  }
  return static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(std::max(jobs, 1)), units));
}

/// Runs body(worker, index) once for every index in [0, n), distributed
/// over resolve_jobs(jobs, n) workers; one worker runs inline on the
/// calling thread (as worker 0) with no thread spawned.  Indices are
/// claimed in increasing order.  No new index is claimed once `stop` (when
/// non-null) is true or a body has thrown; bodies already in flight finish.
/// After the join, the exception thrown by the lowest index is rethrown, so
/// the error is the same for every worker count.
inline void run_indexed(std::size_t n, int jobs,
                        const std::function<void(int, std::size_t)>& body,
                        const std::atomic<bool>* stop = nullptr) {
  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> failed{false};
  std::mutex error_mu;
  std::size_t error_index = n;
  std::exception_ptr error;
  auto worker = [&](int w) {
    while (!failed.load(std::memory_order_relaxed) &&
           (stop == nullptr || !stop->load(std::memory_order_relaxed))) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      try {
        body(w, i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (i < error_index) {
          error_index = i;
          error = std::current_exception();
        }
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };
  const int workers = resolve_jobs(jobs, n);
  if (workers <= 1) {
    worker(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) threads.emplace_back(worker, w);
    for (std::thread& t : threads) t.join();
  }
  if (error) std::rethrow_exception(error);
}

/// How often a failed unit is tried again, and how long to wait first.
struct RetryPolicy {
  /// Total tries per unit (first run + retries).
  int max_attempts = 1;
  /// Retry r waits `backoff_base_ms << (r - 1)` ms plus a jitter in
  /// [0, backoff_base_ms] keyed by (unit index, attempt): workers never
  /// retry in lockstep, yet a rerun sleeps identically.  0 = no wait.
  int backoff_base_ms = 0;

  /// Transient failures are worth another attempt: a stall can be a
  /// one-off under a tight watchdog, a lapsed deadline may pass on a less
  /// loaded machine, and an exception from outside the simulator may not
  /// recur.  Config, invariant, conservation, snapshot and budget errors
  /// are deterministic — a seeded simulator can only repeat them.
  static bool transient(const std::exception& e) {
    const auto* sim = dynamic_cast<const SimError*>(&e);
    if (sim == nullptr) return true;
    switch (sim->kind()) {
      case SimErrorKind::kWatchdogStall:
      case SimErrorKind::kRecoveryExhausted:
      case SimErrorKind::kDeadlineExceeded:
        return true;
      default:
        return false;
    }
  }

  /// Called after attempt `attempt` of unit `unit` failed with `e`.
  /// Returns false when the unit is done (attempts spent or the failure is
  /// deterministic); otherwise sleeps the backoff and returns true.
  bool retry_after(std::size_t unit, int attempt,
                   const std::exception& e) const {
    if (attempt >= max_attempts || !transient(e)) return false;
    if (backoff_base_ms > 0) {
      const u64 base = static_cast<u64>(backoff_base_ms);
      const u64 jitter = mix_bits(static_cast<u64>(unit) * 0x10001ULL +
                                  static_cast<u64>(attempt) +
                                  0x9E3779B97F4A7C15ULL) %
                         (base + 1);
      const int shift = std::min(attempt - 1, 10);
      std::this_thread::sleep_for(
          std::chrono::milliseconds((base << shift) + jitter));
    }
    return true;
  }
};

}  // namespace gpusim
