// Fig. 6: slowdown estimation accuracy on 30 random four-application
// workloads (4 SMs each under the even partition).  Paper result:
// DASE 11.4%, MISE 62.6%, ASM 58%.
#include "bench_util.hpp"
#include "kernels/workload_sets.hpp"
#include "metrics/metrics.hpp"

int reproduce() {
  using namespace gpusim;
  using namespace gpusim::bench;

  banner("Fig. 6 — estimation error on four-application workloads",
         "paper Fig. 6 (DASE 11.4%, MISE 62.6%, ASM 58%)");
  ExperimentRunner runner(default_run_config());

  auto workloads = random_four_app_workloads(30, /*seed=*/2016);
  const int limit = pair_limit(static_cast<int>(workloads.size()));
  workloads.resize(std::min<std::size_t>(workloads.size(), limit));

  TablePrinter table({"workload", "DASE", "MISE", "ASM"}, 15);
  table.print_header();
  std::vector<double> dase_errors;
  std::vector<double> mise_errors;
  std::vector<double> asm_errors;
  for (const Workload& w : workloads) {
    const CoRunResult r = runner.run(
        w, ModelSet{.dase = true, .mise = true, .asm_model = true});
    dase_errors.push_back(r.mean_error_of("DASE"));
    mise_errors.push_back(r.mean_error_of("MISE"));
    asm_errors.push_back(r.mean_error_of("ASM"));
    table.print_row(r.label, TablePrinter::pct(dase_errors.back()),
                    TablePrinter::pct(mise_errors.back()),
                    TablePrinter::pct(asm_errors.back()));
  }
  table.print_row("AVG", TablePrinter::pct(mean(dase_errors)),
                  TablePrinter::pct(mean(mise_errors)),
                  TablePrinter::pct(mean(asm_errors)));
  std::printf("\npaper:  DASE 11.4%%   MISE 62.6%%   ASM 58%%\n");
  std::printf(
      "(the CPU models degrade further with more apps because they cannot\n"
      " extrapolate to the all-SM alone baseline — paper Section VI)\n");
  return 0;
}

int main() { return gpusim::bench::run_main(reproduce); }
