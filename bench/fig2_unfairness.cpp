// Fig. 2: (a) unfairness of two-application combinations under the even SM
// partition of the baseline architecture; (b) the DRAM bandwidth
// decomposition (per-app / wasted / idle) that explains it, including the
// SD-alone reference bar.
#include "bench_util.hpp"
#include "kernels/app_registry.hpp"
#include "kernels/workload_sets.hpp"

int main() {
  using namespace gpusim;
  using namespace gpusim::bench;

  banner("Fig. 2 — unfairness of the baseline even SM partition",
         "paper Fig. 2(a) unfairness, Fig. 2(b) DRAM BW decomposition");
  const ExperimentRunner runner(default_run_config());

  std::printf("\n(a) Unfairness (ideal = 1.0) and per-app slowdowns\n");
  TablePrinter ta({"workload", "unfairness", "s(app1)", "s(app2)"}, 14);
  ta.print_header();
  std::vector<CoRunResult> results;
  for (const Workload& w : motivation_workloads()) {
    results.push_back(runner.run(w, ModelSet{}));
    const CoRunResult& r = results.back();
    ta.print_row(r.label, TablePrinter::num(r.unfairness, 2),
                 TablePrinter::num(r.apps[0].actual_slowdown, 2),
                 TablePrinter::num(r.apps[1].actual_slowdown, 2));
  }

  std::printf("\n(b) DRAM bandwidth decomposition\n");
  TablePrinter tb({"workload", "app1", "app2", "wasted", "idle"}, 14);
  tb.print_header();
  for (const CoRunResult& r : results) {
    tb.print_row(r.label, TablePrinter::pct(r.app_bw_share[0], 1),
                 TablePrinter::pct(r.app_bw_share[1], 1),
                 TablePrinter::pct(r.wasted_bw_share, 1),
                 TablePrinter::pct(r.idle_bw_share, 1));
  }
  // The paper's reference bar: SD running alone uses 40.5% of the DRAM
  // bandwidth; its co-run share shrinking far below that is the unfairness
  // mechanism (Section III-A).
  const AloneStats sd_alone = runner.alone_stats(*find_app("SD"));
  std::printf("%14s%14s\n", "SD-alone",
              TablePrinter::pct(sd_alone.bw_util, 1).c_str());
  return 0;
}
