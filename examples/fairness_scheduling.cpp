// DASE-Fair in action: co-run two applications, watch the policy estimate
// slowdowns, search SM splits and migrate SMs by draining — then compare
// the final fairness against the static even partition.
//
//   ./fairness_scheduling [appA] [appB] [cycles]   (default: AA SD 1000000)
#include <cstdlib>
#include <iostream>

#include "dase/dase_model.hpp"
#include "gpu/simulator.hpp"
#include "harness/runner.hpp"
#include "harness/table_printer.hpp"
#include "kernels/app_registry.hpp"
#include "sched/dase_fair.hpp"

namespace {

using namespace gpusim;

/// Prints one line per estimation interval: current split + estimates.
class TimelinePrinter final : public IntervalObserver {
 public:
  explicit TimelinePrinter(const DaseModel* model) : model_(model) {}

  void on_interval(const IntervalSample& sample, Gpu& gpu) override {
    const auto& est = model_->latest();
    std::printf("  t=%7llu  split=%2d+%-2d  est=%.2f / %.2f%s\n",
                static_cast<unsigned long long>(sample.start + sample.length),
                gpu.sms_assigned(0), gpu.sms_assigned(1),
                est.empty() ? 0.0 : est[0].slowdown_all,
                est.empty() ? 0.0 : est[1].slowdown_all,
                gpu.migration_in_progress() ? "  [migrating]" : "");
  }

 private:
  const DaseModel* model_;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace gpusim;

  const std::string a = argc > 1 ? argv[1] : "AA";
  const std::string b = argc > 2 ? argv[2] : "SD";
  const Cycle cycles = argc > 3 ? std::strtoull(argv[3], nullptr, 10)
                                : cycles_from_env("REPRO_CORUN_CYCLES",
                                                  1'000'000);
  const auto app_a = find_app(a);
  const auto app_b = find_app(b);
  if (!app_a || !app_b) {
    std::cerr << "unknown application abbreviation\n";
    return EXIT_FAILURE;
  }
  if (!dase_fair_eligible(*app_a) || !dase_fair_eligible(*app_b)) {
    std::cerr << "a selected kernel is unfit for SM reallocation "
                 "(too few / too short thread blocks)\n";
    return EXIT_FAILURE;
  }

  std::cout << "DASE-Fair timeline for " << a << "+" << b << " over "
            << cycles << " cycles:\n";
  GpuConfig cfg;
  Simulation sim(cfg, {AppLaunch{*app_a, 42}, AppLaunch{*app_b, 42 + 7919}});
  DaseModel dase;
  DaseFairPolicy policy(&dase);
  TimelinePrinter timeline(&dase);
  sim.add_observer(&dase);
  sim.add_observer(&timeline);
  sim.add_observer(&policy);
  sim.gpu().set_partition(even_partition(cfg.num_sms, 2));
  sim.run(cycles);
  std::cout << "repartitions performed: " << policy.repartitions() << "\n\n";

  // Head-to-head against the static even split, with measured (actual)
  // slowdowns from the alone-replay methodology.
  RunConfig rc;
  rc.co_run_cycles = cycles;
  const ExperimentRunner runner(rc);
  const Workload w{{*app_a, *app_b}};
  const CoRunResult even = runner.run(w, ModelSet{.dase = true});
  const CoRunResult fair =
      runner.run(w, ModelSet{.dase = true}, PolicyKind::kDaseFair);

  TablePrinter table({"policy", "unfairness", "H.Speedup", "s(" + a + ")",
                      "s(" + b + ")"},
                     12);
  table.print_header();
  table.print_row("Even", TablePrinter::num(even.unfairness, 2),
                  TablePrinter::num(even.harmonic_speedup, 3),
                  TablePrinter::num(even.apps[0].actual_slowdown, 2),
                  TablePrinter::num(even.apps[1].actual_slowdown, 2));
  table.print_row("DASE-Fair", TablePrinter::num(fair.unfairness, 2),
                  TablePrinter::num(fair.harmonic_speedup, 3),
                  TablePrinter::num(fair.apps[0].actual_slowdown, 2),
                  TablePrinter::num(fair.apps[1].actual_slowdown, 2));
  return EXIT_SUCCESS;
}
