// Fig. 7: distribution of per-application slowdown-estimation errors for
// DASE / MISE / ASM across the evaluated workloads.  Paper: 70.2% of
// DASE's estimates err below 10% (MISE 4.2%, ASM 6.2%); 90.9% below 20%.
#include "bench_util.hpp"
#include "common/stats.hpp"
#include "kernels/workload_sets.hpp"

int reproduce() {
  using namespace gpusim;
  using namespace gpusim::bench;

  banner("Fig. 7 — error distribution across all workloads",
         "paper Fig. 7 (DASE <10%: 70.2%; <20%: 90.9%)");
  ExperimentRunner runner(default_run_config());

  auto pairs = random_two_app_workloads(pair_limit(60), 2016);
  auto quads = random_four_app_workloads(10, 2016);

  Histogram dase(0.1, 5);
  Histogram mise(0.1, 5);
  Histogram asm_h(0.1, 5);
  auto add_all = [&](const CoRunResult& r) {
    for (const AppResult& a : r.apps) {
      dase.add(a.estimation_error_of("DASE"));
      mise.add(a.estimation_error_of("MISE"));
      asm_h.add(a.estimation_error_of("ASM"));
    }
  };
  const ModelSet models{.dase = true, .mise = true, .asm_model = true};
  for (const Workload& w : pairs) add_all(runner.run(w, models));
  for (const Workload& w : quads) add_all(runner.run(w, models));

  TablePrinter table({"error-range", "DASE", "MISE", "ASM"}, 14);
  table.print_header();
  const char* labels[] = {"0-10%", "10-20%", "20-30%", "30-40%", "40-50%",
                          ">50%"};
  for (int b = 0; b <= 5; ++b) {
    table.print_row(labels[b], TablePrinter::pct(dase.fraction(b)),
                    TablePrinter::pct(mise.fraction(b)),
                    TablePrinter::pct(asm_h.fraction(b)));
  }
  std::printf("\ncumulative:  <10%%: DASE %s  MISE %s  ASM %s\n",
              TablePrinter::pct(dase.fraction_below(0.1)).c_str(),
              TablePrinter::pct(mise.fraction_below(0.1)).c_str(),
              TablePrinter::pct(asm_h.fraction_below(0.1)).c_str());
  std::printf("             <20%%: DASE %s  MISE %s  ASM %s\n",
              TablePrinter::pct(dase.fraction_below(0.2)).c_str(),
              TablePrinter::pct(mise.fraction_below(0.2)).c_str(),
              TablePrinter::pct(asm_h.fraction_below(0.2)).c_str());
  std::printf("paper:       <10%%: DASE 70.2%%  MISE 4.2%%  ASM 6.2%%\n");
  std::printf("             <20%%: DASE 90.9%%  MISE 16.5%%  ASM 19.8%%\n");
  return 0;
}

int main() { return gpusim::bench::run_main(reproduce); }
