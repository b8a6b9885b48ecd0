// Shared helpers for the figure/table reproduction binaries.
//
// Every binary prints the same rows/series the paper reports.  Run
// lengths default to laptop-friendly values and can be scaled with
// environment variables:
//   REPRO_CORUN_CYCLES   co-run length (default 150000; paper used 5M)
//   REPRO_PAIR_LIMIT     cap on two-app workloads where applicable
//   REPRO_WATCHDOG       deadlock-watchdog threshold in cycles, applied to
//                        every co-run and replay of every binary
#pragma once

#include <cstdio>
#include <string>

#include "common/sim_error.hpp"
#include "harness/cli_flags.hpp"
#include "harness/runner.hpp"
#include "harness/table_printer.hpp"

namespace gpusim::bench {

inline RunConfig default_run_config() {
  RunConfig rc;
  rc.co_run_cycles = cycles_from_env("REPRO_CORUN_CYCLES", 150'000);
  rc.watchdog_cycles = cycles_from_env("REPRO_WATCHDOG", rc.watchdog_cycles);
  return rc;
}

inline int pair_limit(int fallback) {
  return count_from_env("REPRO_PAIR_LIMIT", fallback);
}

/// Runs a binary's body and returns its exit status; a SimError that
/// escapes it is reported the way gpusim_cli reports one, with the CLI's
/// exit code for its kind.
template <typename Body>
int run_main(Body&& body) {
  try {
    return body();
  } catch (const SimError& e) {
    return report_sim_error(e);
  }
}

inline void banner(const std::string& title, const std::string& paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf("==============================================================\n");
}

}  // namespace gpusim::bench
