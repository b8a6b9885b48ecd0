// Table III: attained DRAM bandwidth utilisation of each application when
// executing alone on the entire GPU device.
#include "bench_util.hpp"
#include "kernels/app_registry.hpp"

int main() {
  using namespace gpusim;
  using namespace gpusim::bench;

  banner("Table III — alone DRAM bandwidth utilisation",
         "paper Table III (15 applications)");
  const ExperimentRunner runner(default_run_config());

  TablePrinter table({"app", "name", "measured", "paper", "delta"}, 14);
  table.print_header();
  double total_abs_delta = 0.0;
  for (const KernelProfile& app : app_registry()) {
    const AloneStats stats = runner.alone_stats(app);
    const double delta = stats.bw_util - app.table3_bw_util;
    total_abs_delta += std::abs(delta);
    table.print_row(app.abbr, app.name.substr(0, 13),
                    TablePrinter::pct(stats.bw_util, 0),
                    TablePrinter::pct(app.table3_bw_util, 0),
                    TablePrinter::num(delta * 100, 1));
  }
  std::printf("\nmean |delta|: %.1f percentage points\n",
              total_abs_delta / app_registry().size() * 100.0);
  return 0;
}
