// StaticTRR (paper §4.2.1): offline temporal-resolution restoration for
// power-log analysis. Pipeline:
//   1. a natural cubic spline through the sparse labeled readings (set A)
//      estimates the long-term trend P_splined for every tick;
//   2. a PMC-based residual model (decision tree — "we tested all the
//      methods listed in Table 4 but found DT worked best") estimates the
//      short-term deviation, giving P_residual = P_splined + r̂;
//   3. Algorithm 1 post-processes and merges the two estimates.
#pragma once

#include <span>
#include <vector>

#include "highrpm/math/matrix.hpp"
#include "highrpm/math/spline.hpp"
#include "highrpm/measure/collector.hpp"
#include "highrpm/ml/tree.hpp"

namespace highrpm::core {

struct StaticTrrConfig {
  /// Algorithm-1 agreement thresholds (not given in the paper; see
  /// DESIGN.md interpretation notes; ablated in bench_hyperparam).
  double alpha = 0.1;
  double beta = 0.5;
  /// Power plausibility bounds. <= 0 means derive from the labeled readings
  /// (min/max widened by bound_margin).
  double p_upper = 0.0;
  double p_bottom = 0.0;
  double bound_margin = 0.15;
  /// Spike-hold window of Algorithm-1 Operation 1 (the paper's
  /// miss_interval); the spline's local jump threshold is 30% of range.
  std::size_t miss_interval = 10;
  double spike_jump_fraction = 0.30;
  /// Fraction of the labeled set used to train each internal model
  /// (paper: "we select 50% of them as the training set").
  double train_fraction = 0.5;
  /// After the ResModel is trained on the held-out half's residuals, refit
  /// the trend spline on ALL labeled readings for the final restoration
  /// (validate-then-refit). Halving the knot density just to mirror the
  /// paper's split would undersample trends whose period is close to
  /// 2 x miss_interval.
  bool refit_spline_on_all = true;
  ml::TreeConfig res_tree{};
  std::uint64_t seed = 71;
};

/// Intermediate series exposed for evaluation (Table 6 compares the plain
/// spline against the merged StaticTRR output).
struct StaticTrrRestoration {
  std::vector<double> splined;
  std::vector<double> residual;  // spline + DT-estimated deviation
  std::vector<double> merged;    // Algorithm-1 output (the P_StaticTRR)
};

/// Scrubbed sparse labeled readings (see clean_labeled_readings).
struct CleanedReadings {
  std::vector<std::size_t> idx;
  std::vector<double> power;
};

/// Input scrub shared by StaticTrr::fit and restore_node_power: drops
/// non-finite power values and out-of-range tick indices, sorts by tick,
/// and merges duplicate ticks by averaging their readings. Faulty sensors
/// (readout-clock jitter, delayed BMC polls) routinely produce duplicate or
/// non-monotonic timestamps, which would otherwise surface as a
/// CubicSpline "x must be strictly increasing" error from deep inside fit.
/// Already-clean input passes through unchanged.
CleanedReadings clean_labeled_readings(std::span<const std::size_t> idx,
                                       std::span<const double> power,
                                       std::size_t num_ticks);

/// clean_labeled_readings over a run's own IPMI readings: what
/// restore_log_node_power and restore_node_power fit on.
CleanedReadings clean_run_readings(const measure::CollectedRun& run);

class StaticTrr {
 public:
  explicit StaticTrr(StaticTrrConfig cfg = {});

  /// Fit from one run: per-tick PMC features and timestamps plus the sparse
  /// labeled readings (indices into the tick range and their power values).
  /// Throws std::invalid_argument when fewer than four usable readings
  /// remain after clean_labeled_readings and the configured bounds.
  void fit(const math::Matrix& pmcs, std::span<const double> times,
           std::span<const std::size_t> labeled_idx,
           std::span<const double> labeled_power);
  /// fit() on readings clean_labeled_readings already returned for this
  /// run's ticks, which are not cleaned again.
  void fit(const math::Matrix& pmcs, std::span<const double> times,
           CleanedReadings readings);

  /// Restore the full-resolution node-power series for the fitted run. The
  /// per-tick spline and residual-tree walk run in slices on the runtime
  /// pool (every tick depends on itself alone, so the bytes do not depend
  /// on the thread count); the Algorithm-1 merge is serial.
  StaticTrrRestoration restore(const math::Matrix& pmcs,
                               std::span<const double> times) const;

  bool fitted() const noexcept { return spline_.fitted(); }
  const math::CubicSpline& spline() const noexcept { return spline_; }
  double p_upper() const noexcept { return p_upper_; }
  double p_bottom() const noexcept { return p_bottom_; }
  const StaticTrrConfig& config() const noexcept { return cfg_; }

 private:
  StaticTrrConfig cfg_;
  math::CubicSpline spline_;
  ml::DecisionTreeRegressor res_model_;
  double p_upper_ = 0.0;
  double p_bottom_ = 0.0;
};

/// Restore a log's node-power series with StaticTRR fitted on the log's own
/// IPMI readings — the P'_Node series that feeds SRR (paper Fig 3). A
/// deployment log has no dense power column to fall back to, so fewer than
/// four usable readings throw std::invalid_argument (from StaticTrr::fit).
std::vector<double> restore_log_node_power(const measure::CollectedRun& log,
                                           const StaticTrrConfig& cfg);

/// restore_log_node_power for a training run, which carries the rig's dense
/// P_NODE label by design: below four usable IM readings (too short to
/// spline) it returns that label instead of throwing.
std::vector<double> restore_node_power(const measure::CollectedRun& run,
                                       const StaticTrrConfig& cfg);

/// Algorithm 1 (post-processing) as a standalone, unit-testable function.
/// splined/residual are full-resolution series; returns the merged P_trr.
std::vector<double> static_trr_post_process(std::span<const double> splined,
                                            std::span<const double> residual,
                                            double p_upper, double p_bottom,
                                            const StaticTrrConfig& cfg);

}  // namespace highrpm::core
