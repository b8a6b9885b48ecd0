// DASE-Fair — fairness-oriented SM allocation policy (paper Section VII).
//
// At every estimation interval the policy takes DASE's current slowdown
// estimates, converts them to reciprocals (Eq. 28), linearly interpolates
// each application's reciprocal to every possible SM share — towards 1 at
// all SMs (Eq. 29) and towards 0 at zero SMs (Eq. 30) — exhaustively
// searches all SM partitions for the one minimising predicted unfairness
// (Eq. 2), and migrates SMs by draining when the predicted improvement
// clears a hysteresis threshold.
#pragma once

#include <string>
#include <vector>

#include "dase/dase_model.hpp"
#include "gpu/simulator.hpp"
#include "kernels/kernel_profile.hpp"

namespace gpusim {

struct DaseFairOptions {
  /// Intervals to observe before the first repartition decision.
  int warmup_intervals = 1;
  /// Minimum predicted relative unfairness improvement to migrate
  /// (hysteresis against thrashing on estimation noise).
  double min_improvement = 0.05;
  /// Every application keeps at least this many SMs.
  int min_sms_per_app = 1;

  /// Cross-checks the knobs; throws SimError(kConfig) on an inconsistent
  /// combination.  Called by the policy constructor.
  void validate() const;
};

/// Paper Section VII: the policy "is unsuitable for some kernels, which
/// have too less thread blocks or are too short".  Such kernels cannot
/// populate a larger SM share (no blocks left) or finish before draining
/// completes, so DASE-Fair leaves the partition untouched for them.
bool dase_fair_eligible(const KernelProfile& profile);

class DaseFairPolicy final : public IntervalObserver {
 public:
  /// `model` must be registered on the Simulation *before* this policy so
  /// its estimates are fresh when the policy fires.
  DaseFairPolicy(DaseModel* model, DaseFairOptions options = {});

  void on_interval(const IntervalSample& sample, Gpu& gpu) override;

  u64 repartitions() const { return repartitions_; }

  /// Predicts the reciprocal slowdown of an app at `x` SMs from its
  /// current estimate at `assigned` SMs out of `total` (Eq. 29/30).
  static double interpolate_reciprocal(double reciprocal, int assigned,
                                       int x, int total);

  /// Exhaustive minimum-unfairness search: returns the best per-app SM
  /// counts for `total` SMs given current reciprocals and assignments.
  static std::vector<int> search_best_split(
      const std::vector<double>& reciprocals,
      const std::vector<int>& assigned, int total, int min_per_app,
      double* best_unfairness_out = nullptr);

  void save_state(StateWriter& w) const override { write_obs_state(w); }
  void hash_state(Hasher& h) const override { write_obs_state(h); }
  void load_state(StateReader& r) override {
    r.expect_tag("FAIR");
    intervals_seen_ = r.get_i32();
    repartitions_ = r.get_u64();
  }

 private:
  template <typename Sink>
  void write_obs_state(Sink& s) const {
    s.put_tag("FAIR");
    s.put_i32(intervals_seen_);
    s.put_u64(repartitions_);
  }

  std::vector<AppId> build_assignment(Gpu& gpu,
                                      const std::vector<int>& counts) const;

  DaseModel* model_;
  DaseFairOptions options_;
  int intervals_seen_ = 0;
  u64 repartitions_ = 0;
};

}  // namespace gpusim
