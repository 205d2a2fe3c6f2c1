// The HighRPM framework facade (paper Fig 3): wires TRR and SRR together
// behind the two-stage lifecycle the paper describes —
//   initial learning: train StaticTRR / DynamicTRR / SRR on initial samples
//   active learning:  pool initial + restored samples, draw reinforcement
//                     samples, fine-tune
// and the two monitoring modes:
//   restore_log(): offline historical-log analysis (StaticTRR + SRR)
//   on_tick():     online streaming monitoring (DynamicTRR + SRR)
#pragma once

#include <optional>
#include <span>

#include "highrpm/adapt/controller.hpp"
#include "highrpm/core/dynamic_trr.hpp"
#include "highrpm/core/lane.hpp"
#include "highrpm/core/sampler.hpp"
#include "highrpm/core/srr.hpp"
#include "highrpm/core/static_trr.hpp"
#include "highrpm/measure/collector.hpp"

namespace highrpm::core {

struct HighRpmConfig {
  std::size_t miss_interval = 10;
  StaticTrrConfig static_trr{};
  DynamicTrrConfig dynamic_trr{};
  SrrConfig srr{};
  SamplerConfig sampler{};
  /// Constant peripheral draw assumed by the consistency calibration
  /// (paper §5.2: P_Other is a constant ~25 W).
  double p_other_w = 25.0;
  std::size_t active_finetune_epochs = 2;
  /// Co-located tenant count for K-way attribution (0 disables it — the
  /// framework then behaves exactly as the two-component pipeline).
  /// Requires 1 <= tenants <= kMaxTenants when non-zero.
  std::size_t tenants = 0;
  /// Attribution head config. `outputs` is forced to `tenants`; everything
  /// else (hidden width, projection, augmentation) carries the same
  /// semantics as the component SRR. The default is the SmartWatts shape —
  /// a PMC-only network (no P_Node input feature) with the consistency
  /// projection still rescaling toward the node budget: the raw output sum
  /// is then a genuine power prediction, and its residual against the
  /// trusted IM budget is the self-calibration drift signal. A head WITH
  /// include_pnode reconstructs the sum from the P_Node feature itself,
  /// which makes that residual vanish and blinds drift detection.
  SrrConfig tenant_srr{.include_pnode = false, .project_without_pnode = true};
  /// Drift-triggered recalibration of the attribution head (needs
  /// tenants > 0).
  SelfCalConfig self_cal{};
  /// Adaptive sampling (highrpm::adapt): attach a per-stream controller that
  /// watches restored-power volatility and routes quiet phases through the
  /// cheap decision-tree ResModel under a hard overhead budget. The
  /// controller's window is pinned to miss_interval so decisions land on
  /// ring-window boundaries, and train_cheap_model is forced on. Off by
  /// default — when off, every code path is identical to the fixed-rate
  /// pipeline.
  bool adaptive = false;
  adapt::ControllerConfig adapt{};
};

/// Offline restoration of a whole run.
struct LogRestoration {
  std::vector<double> node_w;  // StaticTRR-merged node power per tick
  std::vector<double> cpu_w;   // SRR component split per tick
  std::vector<double> mem_w;
};

class HighRpm {
 public:
  explicit HighRpm(HighRpmConfig cfg = {});

  /// Initial learning stage: training runs carry dense node labels and
  /// rig-based component labels (paper §5.2). Trains DynamicTRR and SRR.
  void initial_learning(std::span<const measure::CollectedRun> runs);

  /// Active learning stage on a *deployment* run (sparse IM only): restore
  /// node power with StaticTRR, pool measured + restored samples, draw a
  /// reinforcement subset, and fine-tune DynamicTRR and SRR. SRR component
  /// pseudo-labels come from its own predictions rescaled so that
  /// cpu + mem = node - P_Other (the bi-directional consistency constraint).
  /// A run with fewer than four usable IM readings cannot be restored (as
  /// in restore_log) and gives no round: nothing is fine-tuned and
  /// active_learning_rounds() does not change.
  void active_learning(const measure::CollectedRun& run);

  /// Offline log analysis: StaticTRR node restoration + SRR breakdown. The
  /// log must carry at least four usable IM readings to spline; fewer throw
  /// std::invalid_argument, since a log has no dense power column to fall
  /// back to. Non-finite PMC rows are held (RowHold). The residual-tree walk
  /// and the SRR split run on the runtime pool, with the same bytes at every
  /// thread count.
  LogRestoration restore_log(const measure::CollectedRun& run) const;

  /// Train the K-way attribution head from multi-tenant runs
  /// (Collector::collect_tenants records). Requires cfg.tenants > 0 and
  /// every run to carry exactly cfg.tenants tenants. The head's features
  /// are the concatenated per-tenant PMC rows plus (when
  /// tenant_srr.include_pnode) the restored node power; labels are the
  /// augmented ground-truth tenant watts (build_attribution_training_set).
  void fit_attribution(std::span<const measure::CollectedRun> runs);

  // --- streaming mode ---
  void reset_stream();
  /// One streaming tick. The facade is a cohort of one: its single lane
  /// steps through step_lanes, the same per-tick pipeline FleetStepper and
  /// the serve daemon run. A non-finite PMC row is held (DynamicTrr's
  /// RowHold) and a non-finite IM reading counts as missed.
  PowerEstimate on_tick(std::span<const double> pmcs,
                        std::optional<double> im_reading);

  /// K-way streaming tick: `tenant_pmcs` is the K tenants' per-cgroup PMC
  /// rows concatenated in tenant order (cfg.tenants * kNumPmcEvents
  /// values). Runs the node pipeline (DynamicTRR + component SRR) exactly
  /// like the 2-arg overload — same estimates, same adaptive decisions —
  /// then fills PowerEstimate::tenant_w from the attribution head. A
  /// non-finite tenant row is held just like the node row. When
  /// self-calibration is enabled, measured ticks feed the drift EWMA and
  /// may trigger an online fine-tune of the attribution head; the trigger
  /// itself allocates (training is not a steady-state path), but
  /// non-trigger ticks stay 0-alloc once warm.
  PowerEstimate on_tick(std::span<const double> pmcs,
                        std::span<const double> tenant_pmcs,
                        std::optional<double> im_reading);

  bool trained() const noexcept {
    return lane_.trr.fitted() && srr_.fitted();
  }
  const HighRpmConfig& config() const noexcept { return cfg_; }
  DynamicTrr& dynamic_trr() noexcept { return lane_.trr; }
  Srr& srr() noexcept { return srr_; }
  const DynamicTrr& dynamic_trr() const noexcept { return lane_.trr; }
  const Srr& srr() const noexcept { return srr_; }
  /// The facade's one lane: the per-stream state (DynamicTrr, controller,
  /// tenant hold, self-calibration) FleetStepper clones per node.
  const Lane& lane() const noexcept { return lane_; }
  /// The K-way attribution head (fitted by fit_attribution). Under
  /// self-calibration it is the lane's own head, recalibrated online.
  Srr& attribution_srr() noexcept {
    return lane_.self_cal ? lane_.self_cal->head() : tenant_srr_;
  }
  const Srr& attribution_srr() const noexcept {
    return lane_.self_cal ? lane_.self_cal->head() : tenant_srr_;
  }
  bool attribution_trained() const noexcept {
    return attribution_srr().fitted();
  }
  /// Self-calibration diagnostics: current drift EWMA (percent of the IM
  /// budget) and cumulative drift-triggered fine-tunes (obs::Counter, safe
  /// to poll from a monitor thread). 0 when self-calibration is off.
  double self_cal_drift_pct() const noexcept {
    return lane_.self_cal ? lane_.self_cal->drift_pct() : 0.0;
  }
  std::size_t self_cal_triggers() const noexcept {
    return lane_.self_cal ? lane_.self_cal->triggers() : 0;
  }
  std::size_t active_learning_rounds() const noexcept { return al_rounds_; }
  /// The adaptive-sampling controller, or nullptr when cfg.adaptive is off.
  /// Exposes mode / budget / flap counters for monitors and benches; the
  /// standing Decision also carries the sensor cadence (PMC stride, IM
  /// interval factor) the *caller* is expected to apply to its sensors —
  /// HighRpm itself only consumes the cheap-vs-LSTM routing.
  const adapt::Controller* controller() const noexcept {
    return lane_.ctl ? &*lane_.ctl : nullptr;
  }

 private:
  /// cfg.static_trr with the facade's miss_interval.
  StaticTrrConfig static_config() const;
  /// Both on_tick overloads: step the one lane (empty tenant_pmcs skips
  /// attribution).
  PowerEstimate step(std::span<const double> pmcs,
                     std::optional<double> im_reading,
                     std::span<const double> tenant_pmcs);

  HighRpmConfig cfg_;
  Lane lane_;
  Srr srr_;
  /// K-way attribution head (cfg_.tenants outputs), shared by every clone.
  /// Default-constructed but unfitted when attribution is off; unused under
  /// self-calibration, where the lane owns its head.
  Srr tenant_srr_;
  ReinforcementSampler sampler_;
  std::size_t al_rounds_ = 0;
  CohortScratch cohort_;
};

}  // namespace highrpm::core
