#include "highrpm/core/highrpm.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "highrpm/math/stats.hpp"
#include "highrpm/obs/obs.hpp"
#include "highrpm/runtime/parallel_for.hpp"

namespace highrpm::core {

namespace {
/// Rows per batched SRR predict in restore_log. Each slice's buffers are
/// sized by it, not by the log, so restoring a long log adds little memory.
constexpr std::size_t kRestoreRowBlock = 64;
}  // namespace

HighRpm::HighRpm(HighRpmConfig cfg)
    : cfg_(std::move(cfg)),
      srr_(cfg_.srr),
      tenant_srr_([&] {
        SrrConfig t = cfg_.tenant_srr;
        // The attribution head's width is the tenant count, whatever the
        // caller left in tenant_srr.outputs.
        if (cfg_.tenants > 0) t.outputs = cfg_.tenants;
        return t;
      }()),
      sampler_(cfg_.sampler) {
  DynamicTrrConfig d = cfg_.dynamic_trr;
  d.miss_interval = cfg_.miss_interval;
  // Sparse mode routes predicts through the DT ResModel, so an adaptive
  // facade must always train it.
  if (cfg_.adaptive) d.train_cheap_model = true;
  lane_.trr = DynamicTrr(d);
  if (cfg_.tenants > kMaxTenants) {
    throw std::invalid_argument("HighRpm: tenants exceeds kMaxTenants");
  }
  if (cfg_.tenants > 0 && cfg_.self_cal.enabled) {
    lane_.self_cal.emplace(cfg_.self_cal, cfg_.p_other_w, tenant_srr_,
                           cfg_.tenants * sim::kNumPmcEvents);
  }
  if (cfg_.adaptive) {
    adapt::ControllerConfig acfg = cfg_.adapt;
    // Decisions must land on ring-window boundaries.
    acfg.window = cfg_.miss_interval;
    lane_.ctl.emplace(acfg);
  }
}

void HighRpm::initial_learning(
    std::span<const measure::CollectedRun> runs) {
  const obs::Span span("core.highrpm.initial_learning_ns");
  if (runs.empty()) {
    throw std::invalid_argument("HighRpm::initial_learning: no runs");
  }
  // DynamicTRR: windows per run over dense node labels.
  std::vector<math::Matrix> pmcs;
  std::vector<std::vector<double>> node_labels;
  for (const auto& run : runs) {
    pmcs.push_back(run.dataset.features());
    node_labels.push_back(run.dataset.target("P_NODE"));
  }
  lane_.trr.train(pmcs, node_labels);

  // SRR: pooled (and latent-scale-augmented) samples across runs, with the
  // TRR restoration of each run as the bi-directional node-power input —
  // at monitoring time SRR only ever sees restored node power, so training
  // on it keeps the input distributions matched (paper Fig 3).
  const auto set = build_srr_training_set(runs, cfg_.srr, static_config());
  srr_.fit(set.x, set.p_node, set.p_cpu, set.p_mem);
  reset_stream();
}

StaticTrrConfig HighRpm::static_config() const {
  StaticTrrConfig sc = cfg_.static_trr;
  sc.miss_interval = cfg_.miss_interval;
  return sc;
}

void HighRpm::active_learning(const measure::CollectedRun& run) {
  const obs::Span span("core.highrpm.active_learning_ns");
  if (!trained()) {
    throw std::logic_error("HighRpm::active_learning: run initial_learning first");
  }
  const auto restored = restore_node_power(run, static_config());
  const auto drawn = sampler_.draw(run.measured);
  const auto& features = run.dataset.features();
  // Reinforcement samples must be usable numbers: drop any tick whose
  // restoration or feature row came back non-finite (possible when the
  // run's sensors were faulty).
  std::vector<std::size_t> reinforcement;
  reinforcement.reserve(drawn.size());
  for (const std::size_t t : drawn) {
    if (std::isfinite(restored[t]) && math::all_finite(features.row(t))) {
      reinforcement.push_back(t);
    }
  }
  if (reinforcement.size() < cfg_.miss_interval) return;

  // --- fine-tune DynamicTRR on restored node power over the drawn span ---
  // Windows must be contiguous, so fine-tune on the contiguous stretch
  // covering the reinforcement draw.
  const std::size_t lo = reinforcement.front();
  const std::size_t hi = reinforcement.back();
  if (hi - lo + 1 >= cfg_.miss_interval) {
    const std::size_t n = hi - lo + 1;
    math::Matrix sub(n, features.cols());
    std::vector<double> labels(n);
    for (std::size_t i = 0; i < n; ++i) {
      std::copy(features.row(lo + i).begin(), features.row(lo + i).end(),
                sub.row(i).begin());
      labels[i] = restored[lo + i];
    }
    // The stretch may still cover degraded ticks between the drawn indices
    // (NaN features or non-finite restorations); skip the TRR fine-tune
    // rather than training on garbage.
    if (math::all_finite(sub.flat()) && math::all_finite(labels)) {
      auto windows = data::make_windows_with_prev_label(
          sub, labels, cfg_.miss_interval, labels[0]);
      // Keep the fine-tune cheap: cap the window count.
      if (windows.size() > 64) windows.resize(64);
      lane_.trr.fine_tune(windows, cfg_.active_finetune_epochs);
    }
  }

  // --- fine-tune SRR with consistency-calibrated pseudo-labels ---
  math::Matrix sx(reinforcement.size(), features.cols());
  std::vector<double> s_node(reinforcement.size());
  std::vector<double> s_cpu(reinforcement.size());
  std::vector<double> s_mem(reinforcement.size());
  for (std::size_t i = 0; i < reinforcement.size(); ++i) {
    const std::size_t t = reinforcement[i];
    std::copy(features.row(t).begin(), features.row(t).end(),
              sx.row(i).begin());
    s_node[i] = restored[t];
    const auto est = srr_.predict_one(features.row(t), s_node[i]);
    // Rescale the component split so it sums to node - P_Other: the node
    // reading is trusted (it is measurement-derived), the split ratio is
    // the model's.
    const double budget = std::max(1.0, s_node[i] - cfg_.p_other_w);
    const double total = std::max(1e-6, est.cpu_w + est.mem_w);
    s_cpu[i] = est.cpu_w * budget / total;
    s_mem[i] = est.mem_w * budget / total;
  }
  srr_.fine_tune(sx, s_node, s_cpu, s_mem, cfg_.active_finetune_epochs);
  ++al_rounds_;
}

LogRestoration HighRpm::restore_log(const measure::CollectedRun& run) const {
  const obs::Span span("core.highrpm.restore_log_ns");
  if (!trained()) {
    throw std::logic_error("HighRpm::restore_log: run initial_learning first");
  }
  LogRestoration out;
  out.node_w = restore_log_node_power(run, static_config());
  const auto& features = run.dataset.features();
  const std::size_t n = features.rows();
  out.cpu_w.resize(n);
  out.mem_w.resize(n);
  // Degraded rows are held like on_tick's — SRR would otherwise split NaN.
  // The hold runs first, serially; then every row's split depends on its
  // own (held) row alone, so the pool predicts slices of the log in
  // batched row blocks, each slice with its own block-sized buffers.
  const std::vector<std::size_t> source = RowHold::sources(features);
  runtime::parallel_for_slices(n, [&](std::size_t begin, std::size_t end) {
    const std::size_t cap = std::min(kRestoreRowBlock, end - begin);
    math::Matrix rows(cap, features.cols());
    std::vector<ComponentEstimate> est(cap);
    Srr::BatchScratch scratch;
    for (std::size_t b = begin; b < end; b += cap) {
      const std::size_t len = std::min(cap, end - b);
      rows.resize(len, features.cols());
      for (std::size_t i = 0; i < len; ++i) {
        const auto dst = rows.row(i);
        if (source[b + i] == RowHold::kZeros) {
          std::fill(dst.begin(), dst.end(), 0.0);
        } else {
          const auto src = features.row(source[b + i]);
          std::copy(src.begin(), src.end(), dst.begin());
        }
      }
      const auto block = std::span(est).first(len);
      srr_.predict_batch_into(rows, std::span(out.node_w).subspan(b, len),
                              block, scratch);
      for (std::size_t i = 0; i < len; ++i) {
        out.cpu_w[b + i] = block[i].cpu_w;
        out.mem_w[b + i] = block[i].mem_w;
      }
    }
  });
  return out;
}

void HighRpm::fit_attribution(std::span<const measure::CollectedRun> runs) {
  const obs::Span span("core.highrpm.fit_attribution_ns");
  if (cfg_.tenants == 0) {
    throw std::logic_error("HighRpm::fit_attribution: cfg.tenants is 0");
  }
  if (runs.empty()) {
    throw std::invalid_argument("HighRpm::fit_attribution: no runs");
  }
  for (const auto& run : runs) {
    if (run.num_tenants != cfg_.tenants) {
      throw std::invalid_argument(
          "HighRpm::fit_attribution: run tenant count != cfg.tenants");
    }
  }
  Srr& head = attribution_srr();
  const auto set =
      build_attribution_training_set(runs, head.config(), static_config());
  head.fit_multi(set.x, set.p_node, set.targets);
  // A fresh head means fresh drift state: old buffered ticks and the old
  // EWMA describe the pre-fit model.
  if (lane_.self_cal) lane_.self_cal->reset_stream();
}

void HighRpm::reset_stream() { lane_.reset_stream(); }

PowerEstimate HighRpm::on_tick(std::span<const double> pmcs,
                               std::optional<double> im_reading) {
  return step(pmcs, im_reading, {});
}

PowerEstimate HighRpm::on_tick(std::span<const double> pmcs,
                               std::span<const double> tenant_pmcs,
                               std::optional<double> im_reading) {
  if (cfg_.tenants == 0) {
    throw std::logic_error("HighRpm::on_tick(tenants): cfg.tenants is 0");
  }
  if (!attribution_trained()) {
    throw std::logic_error("HighRpm::on_tick(tenants): fit_attribution first");
  }
  if (tenant_pmcs.size() != cfg_.tenants * sim::kNumPmcEvents) {
    throw std::invalid_argument(
        "HighRpm::on_tick(tenants): tenant row size != tenants * events");
  }
  return step(pmcs, im_reading, tenant_pmcs);
}

PowerEstimate HighRpm::step(std::span<const double> pmcs,
                            std::optional<double> im_reading,
                            std::span<const double> tenant_pmcs) {
  static obs::Histogram& tick_hist =
      obs::Registry::instance().histogram("core.highrpm.on_tick_ns");
  static obs::Counter& ticks_total =
      obs::Registry::instance().counter("core.highrpm.ticks");
  const obs::Span span(tick_hist);
  ticks_total.add();
  if (!trained()) {
    throw std::logic_error("HighRpm::on_tick: run initial_learning first");
  }
  static constexpr std::size_t kLane = 0;
  PowerEstimate est;
  step_lanes({srr_, lane_.self_cal ? nullptr : &tenant_srr_, nullptr},
             std::span<Lane>(&lane_, 1),
             std::span<const std::size_t>(&kLane, 1), pmcs,
             std::span<const std::optional<double>>(&im_reading, 1),
             std::span<PowerEstimate>(&est, 1), cohort_, tenant_pmcs);
  return est;
}

}  // namespace highrpm::core
