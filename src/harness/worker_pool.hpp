// Shared batch pool.
//
// The sweep fans independent units across threads with one scheme: workers
// claim pending indices from one atomic cursor and write results into
// disjoint, index-addressed slots, so the assembled output is identical for
// every worker count.  This header is that scheme — any determinism
// argument about "who ran what when" reduces to this file.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

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

}  // namespace gpusim
