// Fig. 9: unfairness and harmonic speedup of the DASE-Fair SM allocation
// policy vs. the default even partition.  Paper result: fairness improves
// by 16.1% and performance by 3.7% on average.
#include "bench_util.hpp"
#include "kernels/workload_sets.hpp"
#include "metrics/metrics.hpp"
#include "sched/dase_fair.hpp"

int reproduce() {
  using namespace gpusim;
  using namespace gpusim::bench;

  banner("Fig. 9 — Even vs. DASE-Fair SM allocation",
         "paper Fig. 9 (unfairness -16.1%, H.Speedup +3.7% on average)");
  RunConfig rc = default_run_config();
  // The policy needs a few intervals to estimate, decide and drain.
  rc.co_run_cycles = cycles_from_env("REPRO_CORUN_CYCLES", 1'000'000);
  ExperimentRunner runner(rc);

  auto workloads = random_two_app_workloads(pair_limit(20), 77);
  // The paper excludes kernels with too few / too short thread blocks.
  std::erase_if(workloads, [](const Workload& w) {
    for (const auto& app : w.apps) {
      if (!dase_fair_eligible(app)) return true;
    }
    return false;
  });

  TablePrinter table({"workload", "unf(even)", "unf(fair)", "hs(even)",
                      "hs(fair)", "migs"},
                     11);
  table.print_header();
  std::vector<double> unf_even, unf_fair, hs_even, hs_fair;
  for (const Workload& w : workloads) {
    const CoRunResult even = runner.run(w, ModelSet{.dase = true});
    const CoRunResult fair =
        runner.run(w, ModelSet{.dase = true}, PolicyKind::kDaseFair);
    unf_even.push_back(even.unfairness);
    unf_fair.push_back(fair.unfairness);
    hs_even.push_back(even.harmonic_speedup);
    hs_fair.push_back(fair.harmonic_speedup);
    table.print_row(w.label(), TablePrinter::num(even.unfairness, 2),
                    TablePrinter::num(fair.unfairness, 2),
                    TablePrinter::num(even.harmonic_speedup, 3),
                    TablePrinter::num(fair.harmonic_speedup, 3),
                    fair.repartitions);
  }
  const double ue = mean(unf_even);
  const double uf = mean(unf_fair);
  const double he = mean(hs_even);
  const double hf = mean(hs_fair);
  table.print_row("AVG", TablePrinter::num(ue, 2), TablePrinter::num(uf, 2),
                  TablePrinter::num(he, 3), TablePrinter::num(hf, 3), "");
  std::printf("\nunfairness improvement: %.1f%%   (paper: 16.1%%)\n",
              100.0 * (ue - uf) / ue);
  std::printf("H.Speedup improvement:  %.1f%%   (paper: 3.7%%)\n",
              100.0 * (hf - he) / he);
  return 0;
}

int main() { return gpusim::bench::run_main(reproduce); }
