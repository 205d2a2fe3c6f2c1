#include "highrpm/core/static_trr.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "highrpm/math/rng.hpp"
#include "highrpm/math/stats.hpp"
#include "highrpm/obs/obs.hpp"
#include "highrpm/runtime/parallel_for.hpp"

namespace highrpm::core {

namespace {

/// Copy a feature row, zeroing non-finite entries so the residual tree
/// never trains on (or compares against) NaN — NaN comparisons would break
/// the tree's sort invariants. Clean rows copy through unchanged.
void copy_sanitized_row(std::span<const double> src, std::span<double> dst) {
  for (std::size_t c = 0; c < src.size(); ++c) {
    dst[c] = std::isfinite(src[c]) ? src[c] : 0.0;
  }
}

}  // namespace

CleanedReadings clean_labeled_readings(std::span<const std::size_t> idx,
                                       std::span<const double> power,
                                       std::size_t num_ticks) {
  static obs::Counter& dropped =
      obs::Registry::instance().counter("core.static_trr.dropped_readings");
  const std::size_t n = std::min(idx.size(), power.size());
  std::vector<std::pair<std::size_t, double>> usable;
  usable.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (idx[i] >= num_ticks || !std::isfinite(power[i])) {
      dropped.add();  // out-of-range tick or NaN/Inf reading
      continue;
    }
    usable.emplace_back(idx[i], power[i]);
  }
  std::stable_sort(usable.begin(), usable.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  CleanedReadings out;
  out.idx.reserve(usable.size());
  out.power.reserve(usable.size());
  for (std::size_t i = 0; i < usable.size();) {
    // Average duplicate-tick readings (jitter can land two polls on one
    // tick) so the spline sees one knot per timestamp.
    std::size_t j = i;
    double sum = 0.0;
    while (j < usable.size() && usable[j].first == usable[i].first) {
      sum += usable[j].second;
      ++j;
    }
    out.idx.push_back(usable[i].first);
    out.power.push_back(sum / static_cast<double>(j - i));
    i = j;
  }
  return out;
}

StaticTrr::StaticTrr(StaticTrrConfig cfg) : cfg_(cfg) {
  ml::TreeConfig tc = cfg_.res_tree;
  tc.seed = cfg_.seed;
  res_model_ = ml::DecisionTreeRegressor(tc);
}

void StaticTrr::fit(const math::Matrix& pmcs, std::span<const double> times,
                    std::span<const std::size_t> labeled_idx,
                    std::span<const double> labeled_power) {
  if (labeled_idx.size() != labeled_power.size()) {
    throw std::invalid_argument(
        "StaticTrr::fit: labeled idx/power length mismatch");
  }
  fit(pmcs, times,
      clean_labeled_readings(labeled_idx, labeled_power, times.size()));
}

void StaticTrr::fit(const math::Matrix& pmcs, std::span<const double> times,
                    CleanedReadings cleaned) {
  static obs::Histogram& fit_hist =
      obs::Registry::instance().histogram("core.static_trr.fit_ns");
  const obs::Span span(fit_hist);
  if (pmcs.rows() != times.size()) {
    throw std::invalid_argument("StaticTrr::fit: pmcs/times length mismatch");
  }
  if (cfg_.p_bottom > 0.0 || cfg_.p_upper > 0.0) {
    // Explicitly configured plausibility bounds (e.g. the node's power
    // envelope from the training rig) also veto implausible *readings* —
    // a spiking sensor otherwise drags the spline, and with it the derived
    // band, arbitrarily far off. Derived bounds can't do this: they come
    // from the very readings they would have to judge.
    CleanedReadings kept;
    for (std::size_t i = 0; i < cleaned.idx.size(); ++i) {
      if (cfg_.p_bottom > 0.0 && cleaned.power[i] < cfg_.p_bottom) continue;
      if (cfg_.p_upper > 0.0 && cleaned.power[i] > cfg_.p_upper) continue;
      kept.idx.push_back(cleaned.idx[i]);
      kept.power.push_back(cleaned.power[i]);
    }
    cleaned = std::move(kept);
  }
  if (cleaned.idx.size() < 4) {
    throw std::invalid_argument(
        "StaticTrr::fit: need >= 4 usable labeled readings (after dropping "
        "non-finite / out-of-range entries and merging duplicate ticks)");
  }
  const std::span<const std::size_t> labeled_idx(cleaned.idx);
  const std::span<const double> labeled_power(cleaned.power);

  // Plausibility bounds from the labeled readings unless given.
  const double lo = math::min_value(labeled_power);
  const double hi = math::max_value(labeled_power);
  const double margin = cfg_.bound_margin * std::max(1.0, hi - lo);
  p_bottom_ = cfg_.p_bottom > 0.0 ? cfg_.p_bottom : lo - margin;
  p_upper_ = cfg_.p_upper > 0.0 ? cfg_.p_upper : hi + margin;

  // --- spline model over a training half of set A (paper: 50%) ---
  math::Rng rng(cfg_.seed);
  const std::size_t n_lab = labeled_idx.size();
  const std::size_t n_train = std::max<std::size_t>(
      2, static_cast<std::size_t>(cfg_.train_fraction *
                                  static_cast<double>(n_lab)));
  auto picked = rng.sample_without_replacement(n_lab, n_train);
  std::sort(picked.begin(), picked.end());
  std::vector<double> kx, ky;
  kx.reserve(n_train);
  ky.reserve(n_train);
  for (const std::size_t i : picked) {
    kx.push_back(times[labeled_idx[i]]);
    ky.push_back(labeled_power[i]);
  }
  spline_ = math::CubicSpline(kx, ky);

  // --- residual model over the held-out labeled readings ---
  // Target: signed deviation of the measured power from the spline trend
  // (see DESIGN.md: the paper's ABS() reading contradicts Algorithm 1, so
  // we model the signed residual and form P_residual = P_splined + r̂).
  // Training on the half NOT used as spline knots keeps the residual
  // distribution honest (knot residuals are ~0 by construction).
  std::vector<std::size_t> held;
  {
    std::vector<bool> is_knot(n_lab, false);
    for (const std::size_t i : picked) is_knot[i] = true;
    for (std::size_t i = 0; i < n_lab; ++i) {
      if (!is_knot[i]) held.push_back(i);
    }
    if (held.size() < 4) {  // tiny label sets: use everything
      held.resize(n_lab);
      for (std::size_t i = 0; i < n_lab; ++i) held[i] = i;
    }
  }
  math::Matrix rx(held.size(), pmcs.cols());
  std::vector<double> ry(held.size());
  for (std::size_t i = 0; i < held.size(); ++i) {
    const std::size_t tick = labeled_idx[held[i]];
    copy_sanitized_row(pmcs.row(tick), rx.row(i));
    ry[i] = labeled_power[held[i]] - spline_(times[tick]);
  }
  res_model_.fit(rx, ry);

  if (cfg_.refit_spline_on_all && n_lab > picked.size()) {
    std::vector<double> ax, ay;
    ax.reserve(n_lab);
    ay.reserve(n_lab);
    for (std::size_t i = 0; i < n_lab; ++i) {
      ax.push_back(times[labeled_idx[i]]);
      ay.push_back(labeled_power[i]);
    }
    spline_ = math::CubicSpline(ax, ay);
  }
}

StaticTrrRestoration StaticTrr::restore(const math::Matrix& pmcs,
                                        std::span<const double> times) const {
  if (!fitted()) throw std::logic_error("StaticTrr: not fitted");
  if (pmcs.rows() != times.size()) {
    throw std::invalid_argument("StaticTrr::restore: length mismatch");
  }
  StaticTrrRestoration out;
  const std::size_t n = times.size();
  out.splined.resize(n);
  out.residual.resize(n);
  // Each tick's spline value and tree walk depend on that tick alone, so
  // the pool walks them in slices, each with its own row scratch.
  runtime::parallel_for_slices(n, [&](std::size_t begin, std::size_t end) {
    std::vector<double> scratch(pmcs.cols());
    for (std::size_t i = begin; i < end; ++i) {
      out.splined[i] = spline_(times[i]);
      std::span<const double> row = pmcs.row(i);
      if (!math::all_finite(row)) {  // degraded tick: zero the bad entries
        copy_sanitized_row(row, scratch);
        row = scratch;
      }
      out.residual[i] = out.splined[i] + res_model_.predict_one(row);
    }
  });
  out.merged = static_trr_post_process(out.splined, out.residual, p_upper_,
                                       p_bottom_, cfg_);
  return out;
}

namespace {

/// The run's own IPMI readings, cleaned once.
CleanedReadings run_readings(const measure::CollectedRun& run) {
  std::vector<std::size_t> idx;
  std::vector<double> power;
  idx.reserve(run.ipmi_readings.size());
  power.reserve(run.ipmi_readings.size());
  for (const auto& r : run.ipmi_readings) {
    idx.push_back(r.tick_index);
    power.push_back(r.power_w);
  }
  return clean_labeled_readings(idx, power, run.num_ticks());
}

std::vector<double> restore_from(const measure::CollectedRun& run,
                                 CleanedReadings readings,
                                 const StaticTrrConfig& cfg) {
  StaticTrr trr(cfg);
  const auto times = run.truth.times();
  trr.fit(run.dataset.features(), times, std::move(readings));
  return trr.restore(run.dataset.features(), times).merged;
}

}  // namespace

std::vector<double> restore_log_node_power(const measure::CollectedRun& log,
                                           const StaticTrrConfig& cfg) {
  return restore_from(log, run_readings(log), cfg);
}

std::vector<double> restore_node_power(const measure::CollectedRun& run,
                                       const StaticTrrConfig& cfg) {
  CleanedReadings readings = run_readings(run);
  // Too few usable readings to spline (short run, or faults ate the rest):
  // fall back to the dense target rather than failing deep inside fit.
  if (readings.idx.size() < 4) return run.dataset.target("P_NODE");
  return restore_from(run, std::move(readings), cfg);
}

std::vector<double> static_trr_post_process(std::span<const double> splined,
                                            std::span<const double> residual,
                                            double p_upper, double p_bottom,
                                            const StaticTrrConfig& cfg) {
  if (splined.size() != residual.size()) {
    throw std::invalid_argument("static_trr_post_process: length mismatch");
  }
  static obs::Histogram& merge_hist =
      obs::Registry::instance().histogram("core.static_trr.merge_ns");
  const obs::Span span(merge_hist);
  const std::size_t n = splined.size();
  std::vector<double> spl(splined.begin(), splined.end());
  std::vector<double> res(residual.begin(), residual.end());

  // Operation 1: where the spline jumps by >= spike_jump_fraction of the
  // plausible range between ticks, hold the spike value across the
  // surrounding half miss_interval (spline interpolation smears spikes; the
  // hold restores their duration).
  const double jump_thresh =
      cfg.spike_jump_fraction * std::max(1e-9, p_upper - p_bottom);
  const std::size_t half = cfg.miss_interval / 2;
  const std::vector<double> spl_orig = spl;
  for (std::size_t i = 1; i < n; ++i) {
    if (std::fabs(spl_orig[i] - spl_orig[i - 1]) >= jump_thresh) {
      const std::size_t lo = i >= half ? i - half : 0;
      const std::size_t hi = std::min(n, i + half);
      for (std::size_t j = lo; j < hi; ++j) spl[j] = spl_orig[i];
    }
  }

  std::vector<double> merged(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Operations 2 & 3: the residual estimate is untrustworthy outside the
    // plausibility bounds — fall back to the spline there.
    if (res[i] >= p_upper || res[i] <= p_bottom) res[i] = spl[i];

    // Merge by agreement (Algorithm 1, final three cases).
    const double diff = std::fabs(spl[i] - res[i]);
    const double floor_ = std::max(1e-9, std::min(spl[i], res[i]));
    if (diff <= cfg.alpha * floor_) {
      merged[i] = spl[i];
    } else if (diff <= cfg.beta * floor_) {
      merged[i] = 0.5 * (spl[i] + res[i]);
    } else {
      merged[i] = spl[i];
    }

    // Algorithm 1's output contract: the restored trace stays inside the
    // plausibility band. The spline can overshoot it between knots (cubic
    // ringing past a spike), and Operations 2&3 only guard the residual
    // branch — clamp the merged value too.
    if (p_upper > p_bottom) {
      merged[i] = std::clamp(merged[i], p_bottom, p_upper);
    }
  }
  return merged;
}

}  // namespace highrpm::core
