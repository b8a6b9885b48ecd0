// Ablation study of DASE's design choices (DESIGN.md Section 6) — not a
// paper figure, but the paper calls several of these out as deliberate
// decisions:
//   * alpha -> 1 clamp when alpha is large          (Section 4.1)
//   * dividing aggregate interference by BLP        (Eq. 14)
//   * the TLP and bandwidth caps on all-SM scaling  (Eq. 24 / Eq. 25)
//   * the estimation interval length                (Section 4.4, 50K)
//   * ATD set sampling vs. a full shadow directory  (Section 4.2 / Eq. 13)
//   * the empirical Requestmax factor 0.6           (Eq. 20)
#include "bench_util.hpp"
#include "dase/dase_model.hpp"
#include "kernels/workload_sets.hpp"
#include "metrics/metrics.hpp"

namespace {

using namespace gpusim;
using namespace gpusim::bench;

/// Mean DASE error across `workloads` with the given model options, every
/// co-run and replay under `rc`.
double mean_error(const std::vector<Workload>& workloads,
                  const DaseOptions& options, const RunConfig& rc) {
  // Supplies the exact alone replays.
  const ExperimentRunner runner(rc);

  std::vector<double> errors;
  for (const Workload& w : workloads) {
    // Assembled without models, so the one DASE observer is this
    // variant's.
    const CoRunAssembly corun =
        assemble_corun(rc, w, ModelSet{.dase = false}, PolicyKind::kEven);
    Simulation& sim = *corun.sim;
    DaseModel model(options);
    sim.add_observer(&model);
    sim.run(rc.co_run_cycles);
    sim.gpu().verify_conservation();

    for (int i = 0; i < static_cast<int>(w.apps.size()); ++i) {
      // Equal work alone and shared: the slowdown is the cycle ratio.
      const Cycle alone_cycles = runner.measure_alone_cycles(
          w.apps[i], harness_app_seed(rc.base_seed, i),
          sim.gpu().instructions().total(i));
      const double actual =
          static_cast<double>(sim.gpu().now()) / alone_cycles;
      errors.push_back(
          estimation_error(model.mean_slowdown(i), std::max(1e-3, actual)));
    }
  }
  return mean(errors);
}

}  // namespace

int reproduce() {
  banner("DASE ablations — contribution of each design choice",
         "DESIGN.md Section 6 (paper Sections 4.1-4.4)");
  const RunConfig base_rc = default_run_config();
  const auto workloads = random_two_app_workloads(pair_limit(15), 31);
  const GpuConfig& base_cfg = base_rc.gpu;

  TablePrinter table({"variant", "mean error"}, 26);
  table.print_header();
  auto report = [&](const std::string& name, const DaseOptions& opt,
                    const GpuConfig& cfg) {
    RunConfig rc = base_rc;
    rc.gpu = cfg;
    table.print_row(name, TablePrinter::pct(mean_error(workloads, opt, rc)));
  };

  report("full DASE", DaseOptions{}, base_cfg);
  report("no alpha clamp", DaseOptions{.clamp_alpha = false}, base_cfg);
  report("no BLP divide (Eq.14)", DaseOptions{.divide_by_blp = false},
         base_cfg);
  report("no TLP cap (Eq.24)", DaseOptions{.apply_tlp_cap = false},
         base_cfg);
  report("no BW cap (Eq.25)", DaseOptions{.apply_bw_cap = false}, base_cfg);

  GpuConfig full_atd = base_cfg;
  full_atd.atd_sampled_sets = full_atd.l2_num_sets();
  report("full ATD (no sampling)", DaseOptions{}, full_atd);

  GpuConfig short_interval = base_cfg;
  short_interval.estimation_interval = 12'500;
  report("interval 12.5K", DaseOptions{}, short_interval);
  GpuConfig long_interval = base_cfg;
  long_interval.estimation_interval = 75'000;
  report("interval 75K", DaseOptions{}, long_interval);

  GpuConfig low_reqmax = base_cfg;
  low_reqmax.requestmax_factor = 0.45;
  report("Requestmax factor 0.45", DaseOptions{}, low_reqmax);
  GpuConfig high_reqmax = base_cfg;
  high_reqmax.requestmax_factor = 0.75;
  report("Requestmax factor 0.75", DaseOptions{}, high_reqmax);

  std::printf(
      "\nEach row is the mean DASE estimation error over the same %zu\n"
      "two-app workloads; compare against the 'full DASE' baseline.\n",
      workloads.size());
  return 0;
}

int main() { return gpusim::bench::run_main(reproduce); }
