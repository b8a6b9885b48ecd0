#include "common/sim_error.hpp"

namespace gpusim {

const char* to_string(SimErrorKind kind) {
  switch (kind) {
    case SimErrorKind::kInvariant: return "invariant";
    case SimErrorKind::kQueueOverflow: return "queue-overflow";
    case SimErrorKind::kWatchdogStall: return "watchdog-stall";
    case SimErrorKind::kConservation: return "conservation";
    case SimErrorKind::kConfig: return "config";
    case SimErrorKind::kHarness: return "harness";
    case SimErrorKind::kFault: return "fault";
    case SimErrorKind::kSnapshot: return "snapshot";
    case SimErrorKind::kRecoveryExhausted: return "recovery-exhausted";
    case SimErrorKind::kDeadlineExceeded: return "deadline-exceeded";
    case SimErrorKind::kBudgetExceeded: return "budget-exceeded";
    case SimErrorKind::kInterrupted: return "interrupted";
    case SimErrorKind::kMigrationStalled: return "migration-stalled";
  }
  return "unknown";
}

SimError::SimError(SimErrorKind kind, std::string component,
                   std::string message)
    : std::runtime_error(""),
      kind_(kind),
      component_(std::move(component)),
      message_(std::move(message)) {
  rebuild();
}

SimError& SimError::cycle(Cycle c) {
  has_cycle_ = true;
  cycle_ = c;
  rebuild();
  return *this;
}

SimError& SimError::app(AppId a) {
  app_ = a;
  rebuild();
  return *this;
}

SimError& SimError::at(const char* file, int line) {
  std::ostringstream ss;
  ss << file << ':' << line;
  location_ = ss.str();
  rebuild();
  return *this;
}

void SimError::rebuild() {
  std::ostringstream ss;
  ss << "SimError[" << to_string(kind_) << "] " << component_ << ": "
     << message_;
  if (has_cycle_) ss << "\n  cycle: " << cycle_;
  if (app_ != kInvalidApp) ss << "\n  app: " << app_;
  if (!location_.empty()) ss << "\n  at: " << location_;
  for (const auto& [key, value] : details_) {
    // Multi-line values (pipeline-state dumps) get their own block.
    if (value.find('\n') != std::string::npos) {
      ss << "\n  " << key << ":\n" << value;
    } else {
      ss << "\n  " << key << ": " << value;
    }
  }
  what_ = ss.str();
}

}  // namespace gpusim
