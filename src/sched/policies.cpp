#include "sched/policies.hpp"

#include <algorithm>
#include <cassert>


namespace gpusim {

std::vector<AppId> leftover_allocation(int num_sms,
                                       const std::vector<int>& max_sms) {
  std::vector<AppId> out(num_sms, kInvalidApp);
  int next_sm = 0;
  for (AppId app = 0; app < static_cast<AppId>(max_sms.size()); ++app) {
    const int take = std::min(max_sms[app], num_sms - next_sm);
    for (int k = 0; k < take; ++k) out[next_sm++] = app;
    if (next_sm >= num_sms) break;  // nothing left over
  }
  return out;
}

void TemporalPolicy::on_cycle(Cycle now, Gpu& gpu) {
  if (!started_) {
    started_ = true;
    current_ = 0;
    next_switch_ = now + options_.quantum;
    gpu.set_partition(std::vector<AppId>(gpu.num_sms(), current_));
    return;
  }
  if (now < next_switch_) return;
  if (gpu.migration_in_progress()) return;  // previous switch still draining
  current_ = (current_ + 1) % gpu.num_apps();
  next_switch_ = now + options_.quantum;
  ++switches_;
  gpu.set_partition(std::vector<AppId>(gpu.num_sms(), current_));
}

DaseQosPolicy::DaseQosPolicy(DaseModel* model, DaseQosOptions options)
    : model_(model), options_(options) {
  assert(model_ != nullptr);
  assert(options_.target_slowdown >= 1.0);
}

void DaseQosPolicy::on_interval(const IntervalSample& sample, Gpu& gpu) {
  (void)sample;
  if (++intervals_seen_ <= options_.warmup_intervals) return;
  if (gpu.migration_in_progress()) return;

  const int num_apps = gpu.num_apps();
  const AppId qos = options_.qos_app;
  assert(qos >= 0 && qos < num_apps);
  const auto& estimates = model_->latest();
  if (static_cast<int>(estimates.size()) != num_apps ||
      !estimates[qos].valid) {
    return;
  }

  const double estimate = estimates[qos].slowdown_all;
  const int have = gpu.sms_assigned(qos);
  int want = have;
  if (estimate > options_.target_slowdown) {
    want = have + 1;  // grow: the QoS target is being violated
  } else if (estimate <
             options_.target_slowdown * (1.0 - options_.release_margin)) {
    want = have - 1;  // shrink: give head-room back to the others
  }
  // Feasibility: every other app keeps its minimum share.
  const int max_qos_sms =
      gpu.num_sms() - options_.min_sms_per_app * (num_apps - 1);
  want = std::clamp(want, options_.min_sms_per_app, max_qos_sms);
  if (want == have) return;

  // Build the new assignment: QoS app first, the rest split evenly.
  std::vector<AppId> assignment = gpu.current_partition();
  if (want > have) {
    // Take SMs from the most-endowed other app, one at a time.
    int needed = want - have;
    while (needed > 0) {
      AppId victim = kInvalidApp;
      int victim_sms = options_.min_sms_per_app;
      for (AppId a = 0; a < num_apps; ++a) {
        if (a == qos) continue;
        const int sms = static_cast<int>(
            std::count(assignment.begin(), assignment.end(), a));
        if (sms > victim_sms) {
          victim = a;
          victim_sms = sms;
        }
      }
      if (victim == kInvalidApp) break;
      const auto it =
          std::find(assignment.begin(), assignment.end(), victim);
      *it = qos;
      --needed;
    }
  } else {
    // Release SMs to the least-endowed other app.
    int to_release = have - want;
    while (to_release > 0) {
      AppId beneficiary = kInvalidApp;
      int beneficiary_sms = gpu.num_sms() + 1;
      for (AppId a = 0; a < num_apps; ++a) {
        if (a == qos) continue;
        const int sms = static_cast<int>(
            std::count(assignment.begin(), assignment.end(), a));
        if (sms < beneficiary_sms) {
          beneficiary = a;
          beneficiary_sms = sms;
        }
      }
      const auto it = std::find(assignment.begin(), assignment.end(), qos);
      assert(it != assignment.end());
      *it = beneficiary;
      --to_release;
    }
  }
  gpu.set_partition(assignment);
  ++adjustments_;
}

}  // namespace gpusim
