// Workloads of the paper-artifact benchmark.
//
// Every workload runs a fixed set of applications on the default Table II
// GpuConfig; the seed sets RunConfig::base_seed, from which the harness
// derives each slot's application seed (address streams, block order).
// Fixed app sets keep host time comparable from seed to seed: on the
// reference host one Fig. 5 pair takes 0.4-2.2 s and one Fig. 9 pair
// 6-23 s, so pairs drawn from the seed would move wall time across seeds
// by more than the benchmark's regression bounds.
#include <cmath>
#include <stdexcept>

#include "bench.hpp"
#include "kernels/app_registry.hpp"

namespace paperbench {
namespace {

using gpusim::PolicyKind;

gpusim::Workload pair(const char* a, const char* b) {
  const auto first = gpusim::find_app(a);
  const auto second = gpusim::find_app(b);
  if (!first || !second) {
    throw std::invalid_argument(std::string("unknown application in ") + a +
                                "+" + b);
  }
  return gpusim::Workload{{*first, *second}};
}

void add_unit(Plan& plan, gpusim::Workload workload, gpusim::ModelSet models,
              PolicyKind policy) {
  plan.units.push_back(Unit{"u" + std::to_string(plan.units.size()),
                            std::move(workload), models, policy});
}

}  // namespace

Plan make_plan(const std::string& name, u64 seed) {
  Plan plan;
  plan.name = name;
  plan.rc.base_seed = seed;
  plan.rc.alone_mode = gpusim::RunConfig::AloneMode::kExactReplay;
  if (name == "fig5-estimate") {
    // Fig. 5/7 accuracy: DASE, MISE and ASM on 150K-cycle co-runs (the
    // figure binaries' default length).  Four slot-0 apps each meet two
    // slot-1 apps, so every (app, slot) alone replay happens twice.  At
    // seed 1 the set's DASE error (15.5%) and DASE's margin over the
    // better baseline (10.5 points) track the 105-pair means at seed 42
    // (14.2%, 9.6 points).
    plan.rc.co_run_cycles = 150'000;
    const gpusim::ModelSet all{.dase = true, .mise = true, .asm_model = true};
    const char* slot0[] = {"BS", "CS", "SP", "NN"};
    const char* slot1[] = {"SD", "QR", "SA", "BG"};
    for (int shift = 0; shift < 2; ++shift) {
      for (int i = 0; i < 4; ++i) {
        add_unit(plan, pair(slot0[i], slot1[(i + shift) % 4]), all,
                 PolicyKind::kEven);
      }
    }
  } else if (name == "fig9-fair") {
    // Fig. 9 scheduling: one eligible pair under the even split and under
    // DASE-Fair, 1M cycles each, DASE only, governor on.  At seed 1 CT+SP
    // drains SMs for 350K of its DASE-Fair cycles, and its gains
    // (unfairness -19.8%, harmonic speedup +3.7%) sit at the paper's
    // Fig. 9 means (-16.1%, +3.7%).
    plan.rc.co_run_cycles = 1'000'000;
    const gpusim::ModelSet dase{.dase = true};
    add_unit(plan, pair("CT", "SP"), dase, PolicyKind::kEven);
    add_unit(plan, pair("CT", "SP"), dase, PolicyKind::kDaseFair);
  } else if (name == "paper-scale") {
    // The paper's Fig. 2 pair at the paper's 5M-cycle co-run length: no
    // hooks, no drains, no repeated replays.
    plan.rc.co_run_cycles = 5'000'000;
    add_unit(plan, pair("SD", "SA"), gpusim::ModelSet{.dase = true},
             PolicyKind::kEven);
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (fig5-estimate, fig9-fair, paper-scale)");
  }
  return plan;
}

std::string check_result(const gpusim::CoRunResult& result,
                         const gpusim::RunConfig& rc) {
  for (const gpusim::AppResult& app : result.apps) {
    if (app.instructions == 0) return app.abbr + " starved in the co-run";
    if (!std::isfinite(app.actual_slowdown) || !std::isfinite(app.ipc_alone) ||
        app.ipc_alone <= 0.0) {
      return app.abbr + ": non-finite actual slowdown";
    }
    for (const auto& [model, estimate] : app.estimates) {
      if (!std::isfinite(estimate)) {
        return app.abbr + ": non-finite " + model + " estimate";
      }
    }
    // measure_alone_cycles returns max_alone_cycles when the replay never
    // reaches its target, and ipc_alone = instructions / alone cycles.
    const double alone_cycles =
        static_cast<double>(app.instructions) / app.ipc_alone;
    if (std::llround(alone_cycles) >=
        static_cast<long long>(rc.max_alone_cycles)) {
      return app.abbr + ": alone replay stopped at max_alone_cycles";
    }
  }
  return {};
}

}  // namespace paperbench
