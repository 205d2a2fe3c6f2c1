// highrpm::core::Lane — one monitored stream's per-tick state — and
// step_lanes, the one per-tick pipeline: HighRpm::on_tick steps its single
// lane through it, FleetStepper a shard, the serve daemon a drain cycle's
// cohort. Lanes never read each other's state and the batched kernels are
// bit-identical to a batch of one, so a lane's outputs do not depend on
// the cohort it rides in.
#pragma once

#include <array>
#include <optional>
#include <span>
#include <vector>

#include "highrpm/adapt/controller.hpp"
#include "highrpm/core/dynamic_trr.hpp"
#include "highrpm/core/srr.hpp"
#include "highrpm/math/matrix.hpp"
#include "highrpm/obs/counter.hpp"

namespace highrpm::core {

/// Fixed capacity for per-tenant estimates in PowerEstimate: keeps the
/// per-tick output type allocation-free (the 0-alloc steady-state contract
/// extends to K-way attribution). Raising it is an ABI-ish change — fleet
/// scratch and serve snapshots size off it.
inline constexpr std::size_t kMaxTenants = 8;

/// SmartWatts-style self-calibration: instead of fine-tuning on a fixed
/// schedule, each stream tracks its attribution head's drift online and
/// triggers the active-learning-style fine-tune only when the model has
/// actually wandered. The drift signal is measurement-anchored: on every
/// accepted IM reading, compare the head's clamped pre-projection output
/// sum against the trusted budget (reading - P_Other) — a latent workload
/// change (new instruction mix, new energy weights) shows up there even
/// when every PMC looks the same. The EWMA of that relative error crossing
/// drift_threshold_pct triggers a fine-tune on the buffered recent
/// measured ticks, with pseudo-labels rescaled to the node budget (the
/// same consistency calibration active_learning applies).
struct SelfCalConfig {
  bool enabled = false;
  /// EWMA(relative drift %) level that triggers recalibration.
  double drift_threshold_pct = 8.0;
  /// EWMA smoothing factor (weight of the newest measured tick).
  double ewma_alpha = 0.2;
  /// Measured-tick ring buffer used as the recalibration set; also the
  /// minimum number of buffered ticks before a trigger can fire.
  std::size_t buffer_ticks = 48;
  std::size_t min_buffered = 24;
  /// Ticks (total, not just measured) between triggers — hysteresis so a
  /// single drifted window cannot thrash repeated fine-tunes.
  std::size_t cooldown_ticks = 200;
  /// Fine-tune epochs per trigger (matches active_finetune_epochs scale).
  std::size_t epochs = 2;
};

/// One tick's power picture as HighRPM reports it.
struct PowerEstimate {
  double node_w = 0.0;
  double cpu_w = 0.0;
  double mem_w = 0.0;
  /// True when node_w is a real IM reading rather than a TRR estimate.
  bool measured = false;
  /// K-way attribution (first `tenants` entries valid; 0 when attribution
  /// is off). Fixed array, not a vector: PowerEstimate is returned every
  /// tick and must stay allocation-free.
  std::size_t tenants = 0;
  std::array<double, kMaxTenants> tenant_w{};
};

/// One stream's self-calibration with its own copy of the attribution head:
/// lanes drift apart, so a self-calibrating head cannot be shared.
class SelfCal {
 public:
  /// `row_width` is the concatenated tenant row width. Throws
  /// std::invalid_argument on an inconsistent config.
  SelfCal(const SelfCalConfig& cfg, double p_other_w, Srr head,
          std::size_t row_width);

  Srr& head() noexcept { return head_; }
  const Srr& head() const noexcept { return head_; }
  /// Current drift EWMA, in percent of the IM budget.
  double drift_pct() const noexcept { return drift_pct_; }
  /// Cumulative drift-triggered fine-tunes (obs::Counter, safe to poll
  /// from a monitor thread).
  std::size_t triggers() const noexcept {
    return static_cast<std::size_t>(triggers_.value());
  }

  /// Forget the buffer, drift EWMA and cooldown; weights and the trigger
  /// count persist.
  void reset_stream();
  /// Fill est.tenant_w from the head, then score and buffer a measured
  /// tick. A trigger fine-tunes the head (and allocates); every other tick
  /// is allocation-free once warm.
  void attribute(std::span<const double> trow, PowerEstimate& est,
                 Srr::Scratch& scratch);

 private:
  void recalibrate(Srr::Scratch& scratch);

  SelfCalConfig cfg_;
  double p_other_w_ = 0.0;
  Srr head_;
  /// Ring buffer of recent measured ticks: tenant rows + the IM reading.
  math::Matrix rows_;
  std::vector<double> node_w_;
  std::size_t count_ = 0;     // valid entries (saturates at capacity)
  std::size_t next_ = 0;      // next ring slot to overwrite
  std::size_t cooldown_ = 0;  // ticks until the next trigger may fire
  double drift_pct_ = 0.0;
  bool seeded_ = false;
  obs::Counter triggers_;
};

/// One monitored stream's state: everything a tick writes lives here.
struct Lane {
  DynamicTrr trr;
  /// Present iff adaptive sampling is on. Observed after every commit;
  /// a decision applies from the next tick (window-boundary granularity).
  std::optional<adapt::Controller> ctl;
  /// The last-good-row hold for the concatenated tenant row.
  RowHold tenant_hold;
  /// Present iff the stream self-calibrates its own attribution head.
  std::optional<SelfCal> self_cal;

  /// New stream: stream state goes, weights and counters stay.
  void reset_stream();
};

/// What a cohort's lanes share, read-only for the duration of a step.
struct LaneModels {
  const Srr& srr;
  /// The shared attribution head; null when lanes own theirs (self-cal).
  const Srr* tenant_srr = nullptr;
  /// Shared RNN weights (online fine-tune off): lockstep dense lanes batch
  /// through one GEMM per layer. Null: each lane predicts with its own.
  const ml::SequenceRegressor* shared_rnn = nullptr;
};

/// Caller-owned scratch for step_lanes: zero heap allocations once it has
/// seen its largest cohort.
struct CohortScratch {
  math::Matrix rows;       // L x F PMC rows the tick used (held if needed)
  math::Matrix win_batch;  // (L*T) x (F+1) packed ring windows
  math::Matrix rnn_out;    // L x T batched RNN predictions
  ml::SequenceRegressor::BatchWorkspace rnn_ws;
  std::vector<DynamicTrr::StepPrep> preps;
  std::vector<double> raw;     // raw RNN estimate per lane
  std::vector<double> node_w;  // committed node power per lane
  std::vector<ComponentEstimate> comp;
  Srr::BatchScratch srr;
  // K-way attribution staging (untouched without tenant rows).
  math::Matrix trows;       // L x K*F tenant rows the tick used
  math::Matrix tenant_out;  // L x K attribution estimates
  Srr::BatchScratch tsrr;
  Srr::Scratch own_head;  // lanes that attribute with their own head
};

/// Step lanes[ids[i]] one tick for every i. `pmcs` holds one row per id back
/// to back, `readings[i]` is the IM reading if the tick carried one (a
/// non-finite one counts as missed), `out[i]` receives the estimate, and
/// `tenant_pmcs` holds the concatenated tenant rows like `pmcs` (empty
/// skips attribution). ids must not repeat. Concurrent calls are safe iff
/// their id sets are disjoint and each brings its own scratch.
void step_lanes(const LaneModels& models, std::span<Lane> lanes,
                std::span<const std::size_t> ids,
                std::span<const double> pmcs,
                std::span<const std::optional<double>> readings,
                std::span<PowerEstimate> out, CohortScratch& scratch,
                std::span<const double> tenant_pmcs = {});

}  // namespace highrpm::core
