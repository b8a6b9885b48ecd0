// Beyond Fig. 9: every multitasking strategy the paper discusses, side by
// side — LEFTOVER (Section II: what current GPUs most likely do), temporal
// multitasking (full-GPU turns), the even spatial split (the paper's
// baseline), DASE-Fair (Section VII), and the future-work DASE-QoS
// controller.
#include "bench_util.hpp"
#include "kernels/workload_sets.hpp"
#include "metrics/metrics.hpp"
#include "sched/dase_fair.hpp"

int reproduce() {
  using namespace gpusim;
  using namespace gpusim::bench;

  banner("Policy comparison — LEFTOVER / Temporal / Even / DASE-Fair / QoS",
         "paper Sections II, VII and the stated future work");
  RunConfig rc = default_run_config();
  rc.co_run_cycles = cycles_from_env("REPRO_CORUN_CYCLES", 1'000'000);
  rc.qos.target_slowdown = 2.0;
  ExperimentRunner runner(rc);

  auto workloads = random_two_app_workloads(pair_limit(6), 77);
  std::erase_if(workloads, [](const Workload& w) {
    for (const auto& app : w.apps) {
      if (!dase_fair_eligible(app)) return true;
    }
    return false;
  });

  struct Row {
    const char* name;
    PolicyKind kind;
  };
  const Row rows[] = {
      {"LEFTOVER", PolicyKind::kLeftover},
      {"Temporal", PolicyKind::kTemporal},
      {"Even", PolicyKind::kEven},
      {"DASE-Fair", PolicyKind::kDaseFair},
      {"DASE-QoS(2.0)", PolicyKind::kDaseQos},
  };

  for (const Workload& w : workloads) {
    std::printf("\n-- %s --\n", w.label().c_str());
    TablePrinter table({"policy", "s(app1)", "s(app2)", "unfairness",
                        "H.Speedup", "actions"},
                       14);
    table.print_header();
    for (const Row& row : rows) {
      const CoRunResult r = runner.run(w, ModelSet{.dase = true}, row.kind);
      auto slowdown_str = [](double s) {
        return s >= 1e5 ? std::string("starved") : TablePrinter::num(s, 2);
      };
      table.print_row(row.name, slowdown_str(r.apps[0].actual_slowdown),
                      slowdown_str(r.apps[1].actual_slowdown),
                      r.unfairness >= 1e5 ? std::string(">1e5")
                                          : TablePrinter::num(r.unfairness, 2),
                      TablePrinter::num(r.harmonic_speedup, 3),
                      r.repartitions);
    }
  }
  std::printf(
      "\nExpected shape: LEFTOVER starves the second application entirely\n"
      "(the paper's argument for spatial multitasking); temporal turns are\n"
      "costly because full-GPU switches must drain; DASE-Fair minimises\n"
      "unfairness; DASE-QoS pins app1 near its 2.0x target instead.\n");
  return 0;
}

int main() { return gpusim::bench::run_main(reproduce); }
