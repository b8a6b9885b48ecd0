// Fig. 5: slowdown estimation accuracy of DASE vs. MISE vs. ASM across all
// C(15,2) = 105 two-application workloads under the even SM partition.
// Paper result: DASE 8.8%, MISE 36.3%, ASM 32.8% average error.
#include "bench_util.hpp"
#include "kernels/workload_sets.hpp"
#include "metrics/metrics.hpp"

int reproduce() {
  using namespace gpusim;
  using namespace gpusim::bench;

  banner("Fig. 5 — estimation error on two-application workloads",
         "paper Fig. 5 (DASE 8.8%, MISE 36.3%, ASM 32.8%)");
  ExperimentRunner runner(default_run_config());

  auto workloads = all_two_app_workloads();
  const int limit = pair_limit(static_cast<int>(workloads.size()));
  if (limit < static_cast<int>(workloads.size())) {
    workloads.resize(limit);
    std::printf("(REPRO_PAIR_LIMIT=%d: reporting a prefix of the 105 pairs)\n",
                limit);
  }

  TablePrinter table({"workload", "DASE", "MISE", "ASM"}, 12);
  table.print_header();
  std::vector<double> dase_errors;
  std::vector<double> mise_errors;
  std::vector<double> asm_errors;
  for (const Workload& w : workloads) {
    const CoRunResult r = runner.run(
        w, ModelSet{.dase = true, .mise = true, .asm_model = true});
    const double de = r.mean_error_of("DASE");
    const double me = r.mean_error_of("MISE");
    const double ae = r.mean_error_of("ASM");
    dase_errors.push_back(de);
    mise_errors.push_back(me);
    asm_errors.push_back(ae);
    table.print_row(r.label, TablePrinter::pct(de), TablePrinter::pct(me),
                    TablePrinter::pct(ae));
  }
  table.print_row("AVG", TablePrinter::pct(mean(dase_errors)),
                  TablePrinter::pct(mean(mise_errors)),
                  TablePrinter::pct(mean(asm_errors)));
  std::printf("\npaper:  DASE 8.8%%   MISE 36.3%%   ASM 32.8%%\n");
  return 0;
}

int main() { return gpusim::bench::run_main(reproduce); }
