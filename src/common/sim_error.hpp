// SimGuard typed-error layer.
//
// Every internal invariant of the simulator used to be a debug-only
// `assert`; in an optimized build those either vanish (NDEBUG) or abort the
// whole process with no context.  Long multiprogrammed sweeps (the paper's
// 105-pair / 5M-cycle runs) need the opposite: always-on checks that raise a
// structured, catchable diagnostic carrying the simulation cycle, the
// application, the component and any queue occupancies involved, so a sweep
// driver can log the failure, skip or retry the pair, and keep going.
//
// Usage:
//   SIM_CHECK(pushed, SimError(SimErrorKind::kQueueOverflow, "mem.partition",
//                              "response queue overflow")
//                         .cycle(now)
//                         .app(req.app)
//                         .detail("occupancy", resp_queue_.size()));
//
// The error expression after the condition is only evaluated on failure, so
// a passing check costs one predictable branch.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace gpusim {

enum class SimErrorKind {
  kInvariant,      ///< internal consistency violation (ex-assert)
  kQueueOverflow,  ///< a bounded hardware queue overflowed
  kWatchdogStall,  ///< progress watchdog: deadlock / livelock detected
  kConservation,   ///< request-conservation audit failed (leak / duplicate)
  kConfig,         ///< invalid configuration reached a component
  kHarness,        ///< experiment-harness misuse (missing model, bad split)
  kSnapshot,       ///< SimState snapshot format / integrity / mismatch error
  kBudgetExceeded,     ///< an alone replay hit max_alone_cycles
  kInterrupted,        ///< cooperative cancellation (SIGINT/SIGTERM drain)
  kMigrationStalled,   ///< SM drain pending for a full watchdog threshold
};

const char* to_string(SimErrorKind kind);

/// Structured simulator error.  Derives from std::runtime_error so existing
/// catch sites keep working; what() renders kind, component, cycle, app and
/// every attached detail on one line each.
class SimError : public std::runtime_error {
 public:
  SimError(SimErrorKind kind, std::string component, std::string message);

  // Fluent context attachment (each returns *this so a throw site can chain
  // and throw in one expression).
  SimError& cycle(Cycle c);
  SimError& app(AppId a);
  SimError& at(const char* file, int line);
  template <typename V>
  SimError& detail(const std::string& key, const V& value) {
    std::ostringstream ss;
    ss << value;
    details_.emplace_back(key, ss.str());
    rebuild();
    return *this;
  }

  SimErrorKind kind() const { return kind_; }
  const std::string& component() const { return component_; }
  const std::string& message() const { return message_; }
  bool has_cycle() const { return has_cycle_; }
  Cycle error_cycle() const { return cycle_; }
  AppId error_app() const { return app_; }
  const std::vector<std::pair<std::string, std::string>>& details() const {
    return details_;
  }

  const char* what() const noexcept override { return what_.c_str(); }

 private:
  void rebuild();

  SimErrorKind kind_;
  std::string component_;
  std::string message_;
  bool has_cycle_ = false;
  Cycle cycle_ = 0;
  AppId app_ = kInvalidApp;
  std::string location_;
  std::vector<std::pair<std::string, std::string>> details_;
  std::string what_;
};

/// Always-on invariant check: throws the given SimError (annotated with the
/// failing source location and the stringified condition) when `cond` is
/// false.  Unlike assert(), this survives NDEBUG and is catchable.
#define SIM_CHECK(cond, err)                                            \
  do {                                                                  \
    if (!(cond)) {                                                      \
      throw (err).detail("failed_check", #cond).at(__FILE__, __LINE__); \
    }                                                                   \
  } while (0)

/// Unconditional structured failure.
#define SIM_FAIL(err) throw (err).at(__FILE__, __LINE__)

/// Shorthand for plain internal invariants where only a component tag and a
/// message are worth spelling out.
#define SIM_INVARIANT(cond, component, msg) \
  SIM_CHECK(cond, ::gpusim::SimError(::gpusim::SimErrorKind::kInvariant, \
                                     (component), (msg)))

}  // namespace gpusim
