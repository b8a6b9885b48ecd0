// Fig. 3: the performance of a memory-intensive application is directly
// proportional to its memory request service rate — the observation the
// whole DASE model rests on (Eq. 3).
//
// We hold one memory-intensive kernel fixed on half the SMs and sweep the
// memory intensity of its co-runner: the more bandwidth the co-runner
// takes, the lower the measured service rate of the kernel under test, and
// its IPC must track that rate linearly.
#include <cmath>

#include "bench_util.hpp"
#include "gpu/simulator.hpp"
#include "kernels/app_registry.hpp"

int reproduce() {
  using namespace gpusim;
  using namespace gpusim::bench;

  banner("Fig. 3 — performance vs. memory request service rate",
         "paper Fig. 3 (memory-intensive kernel, varying request service "
         "rate)");
  const RunConfig rc = default_run_config();

  const KernelProfile subject = *find_app("VA");  // streaming, intensive
  TablePrinter table({"hog_frac", "req/kcyc", "IPC"}, 12);
  table.print_header();
  std::vector<double> rates;
  std::vector<double> ipcs;
  for (double hog_intensity :
       {0.001, 0.003, 0.005, 0.008, 0.012, 0.02, 0.05, 0.20, 0.50}) {
    KernelProfile hog = *find_app("SB");
    hog.mem_fraction = hog_intensity;
    // Built by hand for its own seeds (42, 43), under the watchdog and
    // audit every assembled co-run gets.
    Simulation sim(rc.gpu, {AppLaunch{subject, 42}, AppLaunch{hog, 43}});
    sim.set_watchdog(rc.watchdog_cycles);
    sim.gpu().set_partition(even_partition(rc.gpu.num_sms, 2));
    sim.run(rc.co_run_cycles);
    sim.gpu().verify_conservation();
    u64 served = 0;
    for (int m = 0; m < sim.gpu().num_partitions(); ++m) {
      served +=
          sim.gpu().partition(m).mc().counters().requests_served.total(0);
    }
    const double rate = 1000.0 * served / sim.gpu().now();
    const double ipc =
        static_cast<double>(sim.gpu().instructions().total(0)) /
        sim.gpu().now();
    rates.push_back(rate);
    ipcs.push_back(ipc);
    table.print_row(TablePrinter::num(hog_intensity, 3),
                    TablePrinter::num(rate, 0), TablePrinter::num(ipc, 3));
  }

  // Pearson correlation between the subject's request service rate and its
  // IPC across the sweep.
  const int n = static_cast<int>(rates.size());
  double sx = 0, sy = 0, sxx = 0, syy = 0, sxy = 0;
  for (int i = 0; i < n; ++i) {
    sx += rates[i];
    sy += ipcs[i];
    sxx += rates[i] * rates[i];
    syy += ipcs[i] * ipcs[i];
    sxy += rates[i] * ipcs[i];
  }
  const double corr = (n * sxy - sx * sy) /
                      std::sqrt((n * sxx - sx * sx) * (n * syy - sy * sy));
  std::printf(
      "\ncorrelation(IPC, service rate): %.4f\n"
      "(the paper's Fig. 3 shows an essentially linear relationship;\n"
      " expect > 0.99 here)\n",
      corr);
  return 0;
}

int main() { return gpusim::bench::run_main(reproduce); }
