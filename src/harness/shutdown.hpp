// Process-wide graceful-shutdown flag.
//
// Long campaigns (sweeps, chaos) are crash-safe through their JSONL
// checkpoints, but an operator Ctrl-C or a scheduler SIGTERM used to kill
// the process at an arbitrary instruction — usually harmless thanks to the
// torn-line discipline, yet it always threw away the unit of work in flight
// and occasionally left a torn checkpoint tail for the next resume to skip.
// These handlers turn both signals into a *drain*: the first SIGINT/SIGTERM
// flips one atomic flag that every engine samples (SweepOptions::cancel,
// ChaosOptions::cancel, RunConfig::cancel); in-flight units finish or
// snapshot, their checkpoint lines flush whole, and the process exits
// resumable.  A second signal skips the drain and hard-exits with status
// 130 — the operator always keeps an escape hatch.
#pragma once

#include <atomic>

namespace gpusim {

/// Installs SIGINT + SIGTERM handlers that request a graceful drain.
/// Idempotent; call once near the top of main().
void install_shutdown_handlers();

/// True once a shutdown signal has been received.
bool shutdown_requested();

/// The flag itself, for wiring into SweepOptions/ChaosOptions/RunConfig
/// `cancel` fields.  Valid for the process lifetime.
const std::atomic<bool>* shutdown_flag();

/// Test hook: clears the flag so one test binary can exercise several
/// drain scenarios.  Never call from production code.
void reset_shutdown_for_tests();

}  // namespace gpusim
