// Fig. 4: for a memory-bandwidth-bound application (SB), the number of
// requests served per kilocycle when it runs alone is close to the *sum*
// of all applications' served requests when it co-runs — the observation
// behind DASE's MBB estimator (Eq. 18).
#include "bench_util.hpp"
#include "gpu/simulator.hpp"
#include "kernels/app_registry.hpp"

namespace {

gpusim::u64 served_total(gpusim::Gpu& gpu, gpusim::AppId app) {
  gpusim::u64 served = 0;
  for (int m = 0; m < gpu.num_partitions(); ++m) {
    served += gpu.partition(m).mc().counters().requests_served.total(app);
  }
  return served;
}

}  // namespace

int main() {
  using namespace gpusim;
  using namespace gpusim::bench;

  banner("Fig. 4 — served requests of an MBB app: alone vs. co-run sum",
         "paper Fig. 4 (SB paired with other applications)");
  const RunConfig rc = default_run_config();

  // SB running alone on the whole GPU.
  const KernelProfile sb = *find_app("SB");
  const double alone_rate =
      ExperimentRunner(rc).alone_stats(sb).served_per_kcycle;
  std::printf("\nSB alone: %.0f served requests / 1000 cycles\n\n",
              alone_rate);

  TablePrinter table({"workload", "SB", "partner", "sum", "alone", "ratio"},
                     11);
  table.print_header();
  for (const char* partner : {"VA", "SA", "SD", "CT", "NN", "AT", "QR"}) {
    Simulation sim(rc.gpu,
                   {AppLaunch{sb, harness_app_seed(rc.base_seed, 0)},
                    AppLaunch{*find_app(partner),
                              harness_app_seed(rc.base_seed, 1)}});
    sim.gpu().set_partition(even_partition(rc.gpu.num_sms, 2));
    sim.run(rc.co_run_cycles);
    const double r0 = 1000.0 * served_total(sim.gpu(), 0) / sim.gpu().now();
    const double r1 = 1000.0 * served_total(sim.gpu(), 1) / sim.gpu().now();
    table.print_row(std::string("SB+") + partner, TablePrinter::num(r0, 0),
                    TablePrinter::num(r1, 0), TablePrinter::num(r0 + r1, 0),
                    TablePrinter::num(alone_rate, 0),
                    TablePrinter::num((r0 + r1) / alone_rate, 2));
  }
  std::printf(
      "\nratio ~= 1 confirms Eq. 18: alone, the MBB kernel would absorb the\n"
      "service capacity all concurrent applications consume together.\n");
  return 0;
}
