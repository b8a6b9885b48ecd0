// Fig. 8: DASE's estimation accuracy is robust to (a) uneven SM splits and
// (b) the total number of SMs.
#include "bench_util.hpp"
#include "kernels/workload_sets.hpp"
#include "metrics/metrics.hpp"

int reproduce() {
  using namespace gpusim;
  using namespace gpusim::bench;

  banner("Fig. 8 — sensitivity of DASE accuracy",
         "paper Fig. 8(a) varying SM allocation, Fig. 8(b) varying SM count");
  const int num_pairs = pair_limit(10);
  const auto workloads = random_two_app_workloads(num_pairs, 8);

  std::printf("\n(a) DASE error vs. SM split (%d random pairs)\n", num_pairs);
  {
    ExperimentRunner runner(default_run_config());
    TablePrinter table({"split", "DASE error"}, 14);
    table.print_header();
    for (const auto& split : std::vector<std::vector<int>>{
             {4, 12}, {6, 10}, {8, 8}, {10, 6}, {12, 4}}) {
      std::vector<double> errors;
      for (const Workload& w : workloads) {
        const CoRunResult r = runner.run(w, ModelSet{.dase = true},
                                         PolicyKind::kEven, &split);
        errors.push_back(r.mean_error_of("DASE"));
      }
      table.print_row(std::to_string(split[0]) + "+" +
                          std::to_string(split[1]),
                      TablePrinter::pct(mean(errors)));
    }
  }

  std::printf("\n(b) DASE error vs. total SM count (even split)\n");
  {
    TablePrinter table({"total SMs", "DASE error"}, 14);
    table.print_header();
    for (int sms : {4, 8, 12, 16}) {
      RunConfig rc = default_run_config();
      rc.gpu.num_sms = sms;
      ExperimentRunner runner(rc);  // alone baselines use the same GPU size
      std::vector<double> errors;
      for (const Workload& w : workloads) {
        const CoRunResult r = runner.run(w, ModelSet{.dase = true});
        errors.push_back(r.mean_error_of("DASE"));
      }
      table.print_row(sms, TablePrinter::pct(mean(errors)));
    }
  }
  std::printf(
      "\npaper: DASE stays accurate across splits and SM counts (Fig. 8)\n");
  return 0;
}

int main() { return gpusim::bench::run_main(reproduce); }
