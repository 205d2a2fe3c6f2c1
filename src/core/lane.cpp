#include "highrpm/core/lane.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "highrpm/math/float_eq.hpp"
#include "highrpm/obs/obs.hpp"

namespace highrpm::core {

SelfCal::SelfCal(const SelfCalConfig& cfg, double p_other_w, Srr head,
                 std::size_t row_width)
    : cfg_(cfg),
      p_other_w_(p_other_w),
      head_(std::move(head)),
      rows_(cfg.buffer_ticks, row_width),
      node_w_(cfg.buffer_ticks) {
  if (cfg_.buffer_ticks == 0 || cfg_.min_buffered > cfg_.buffer_ticks ||
      !(cfg_.ewma_alpha > 0.0) || cfg_.ewma_alpha > 1.0) {
    throw std::invalid_argument("SelfCal: bad self_cal config");
  }
}

void SelfCal::reset_stream() {
  count_ = 0;
  next_ = 0;
  cooldown_ = 0;
  drift_pct_ = 0.0;
  seeded_ = false;
}

void SelfCal::attribute(std::span<const double> trow, PowerEstimate& est,
                        Srr::Scratch& scratch) {
  static obs::Counter& triggers_total =
      obs::Registry::instance().counter("core.highrpm.selfcal_triggers");
  double raw_total = 0.0;
  head_.predict_one_into(trow, est.node_w,
                         std::span<double>(est.tenant_w.data(), est.tenants),
                         scratch, &raw_total);
  if (cooldown_ > 0) --cooldown_;
  if (!est.measured) return;
  // Buffer the measured tick (ring, oldest overwritten).
  const auto slot = rows_.row(next_);
  std::copy(trow.begin(), trow.end(), slot.begin());
  node_w_[next_] = est.node_w;
  next_ = (next_ + 1) % rows_.rows();
  count_ = std::min(count_ + 1, rows_.rows());
  // Drift: the head's clamped pre-projection sum vs the trusted IM budget.
  // The projection would hide exactly this error, which is why the signal
  // is taken before it.
  const double budget = std::max(1.0, est.node_w - p_other_w_);
  const double drift_pct = 100.0 * std::abs(raw_total - budget) / budget;
  drift_pct_ = seeded_ ? (1.0 - cfg_.ewma_alpha) * drift_pct_ +
                             cfg_.ewma_alpha * drift_pct
                       : drift_pct;
  seeded_ = true;
  if (drift_pct_ > cfg_.drift_threshold_pct && count_ >= cfg_.min_buffered &&
      cooldown_ == 0) {
    recalibrate(scratch);
    triggers_.add();
    triggers_total.add();
    cooldown_ = cfg_.cooldown_ticks;
    // Re-seed the EWMA: the old level measured the pre-fix model.
    drift_pct_ = 0.0;
    seeded_ = false;
  }
}

// Fine-tune the head on the buffered measured ticks, with pseudo-labels
// rescaled to the node budget.
void SelfCal::recalibrate(Srr::Scratch& scratch) {
  const obs::Span span("core.highrpm.selfcal_finetune_ns");
  const std::size_t k = head_.config().outputs;
  const std::size_t n = count_;
  const std::size_t cap = rows_.rows();
  const std::size_t start = (next_ + cap - n) % cap;
  math::Matrix x(n, rows_.cols());
  std::vector<double> p_node(n);
  math::Matrix targets(n, k);
  std::vector<double> split(k);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t s = (start + i) % cap;
    const auto src = rows_.row(s);
    std::copy(src.begin(), src.end(), x.row(i).begin());
    p_node[i] = node_w_[s];
    // Pseudo-labels: the head's own split rescaled so it sums to the
    // measured budget — the same consistency calibration active_learning
    // applies to the component head. The reading is trusted; the ratio is
    // the model's.
    head_.predict_one_into(src, p_node[i], split, scratch);
    const double budget = std::max(1.0, p_node[i] - p_other_w_);
    double total = 0.0;
    for (const double v : split) total += v;
    total = std::max(1e-6, total);
    for (std::size_t j = 0; j < k; ++j) {
      targets(i, j) = split[j] * budget / total;
    }
  }
  head_.fine_tune_multi(x, p_node, targets, cfg_.epochs);
}

void Lane::reset_stream() {
  trr.reset_stream();
  tenant_hold.reset();
  // Self-calibration observations belong to the stream, not the model: a
  // new stream (or a cloned per-node lane) starts with an empty buffer and
  // an unseeded drift EWMA. The fine-tuned weights themselves persist.
  if (self_cal) self_cal->reset_stream();
  if (ctl) {
    ctl->reset();
    // Re-apply the standing decision (a fresh controller starts Sparse).
    // Before training the cheap model does not exist yet; routing is then
    // applied by the first post-training reset.
    if (trr.cheap_fitted()) trr.set_use_cheap(ctl->decision().use_cheap);
  }
}

void step_lanes(const LaneModels& models, std::span<Lane> lanes,
                std::span<const std::size_t> ids,
                std::span<const double> pmcs,
                std::span<const std::optional<double>> readings,
                std::span<PowerEstimate> out, CohortScratch& scratch,
                std::span<const double> tenant_pmcs) {
  const std::size_t n = ids.size();
  if (n == 0) return;
  CohortScratch& ss = scratch;
  const std::size_t f = pmcs.size() / n;
  ss.rows.resize(n, f);
  ss.preps.resize(n);
  ss.raw.resize(n);
  ss.node_w.resize(n);
  ss.comp.resize(n);

  // Phase 1 per lane: window prepare. DynamicTrr holds a non-finite row in
  // its ring slot, and SRR and the controller read the row back from there,
  // so every stage of the tick sees the same held input.
  for (std::size_t li = 0; li < n; ++li) {
    DynamicTrr& trr = lanes[ids[li]].trr;
    std::optional<double> reading = readings[li];
    if (reading && !std::isfinite(*reading)) reading.reset();
    ss.preps[li] = trr.step_prepare(pmcs.subspan(li * f, f), reading);
    const auto row = trr.prepared_pmcs(ss.preps[li]);
    std::copy(row.begin(), row.end(), ss.rows.row(li).begin());
  }

  // Phase 2: predict. Lockstep dense lanes on shared weights batch through
  // one GEMM per RNN layer; otherwise each lane predicts on its own — a
  // cheap-path lane through its decision tree, a dense lane as a batch of
  // one through its own model. Batching is a throughput choice, never a
  // result choice: the batched kernels are bit-identical to a batch of one.
  const std::size_t window = ss.preps[0].rows;
  bool batch = models.shared_rnn != nullptr && window > 0;
  for (std::size_t li = 0; batch && li < n; ++li) {
    batch = ss.preps[li].rows == window && !lanes[ids[li]].trr.use_cheap();
  }
  if (batch) {
    ss.win_batch.resize(n * window, f + 1);
    for (std::size_t li = 0; li < n; ++li) {
      lanes[ids[li]].trr.pack_window_into(ss.win_batch, li * window);
    }
    models.shared_rnn->predict_batch_into(ss.win_batch, n, ss.rnn_out,
                                          ss.rnn_ws);
    for (std::size_t li = 0; li < n; ++li) {
      ss.raw[li] = ss.rnn_out(li, window - 1);
    }
  } else {
    for (std::size_t li = 0; li < n; ++li) {
      DynamicTrr& trr = lanes[ids[li]].trr;
      ss.raw[li] = trr.use_cheap() ? trr.predict_prepared_cheap(ss.preps[li])
                                   : trr.predict_prepared();
    }
  }

  // Phase 3 per lane: commit (clamps, stuck-sensor logic, measurement
  // supersede + fine-tune), the measured flag, and adaptive sampling.
  // Measured ticks are NOT observed: they return the IM reading verbatim,
  // so the model-vs-meter bias would register as a volatility jump on every
  // reading tick and the score could never separate calm from volatile
  // regimes. A returned decision is a mode change from the next tick.
  for (std::size_t li = 0; li < n; ++li) {
    Lane& lane = lanes[ids[li]];
    const double node_w = lane.trr.step_commit(ss.preps[li], ss.raw[li]);
    ss.node_w[li] = node_w;
    out[li].node_w = node_w;
    const std::optional<double>& r = readings[li];
    out[li].measured = r.has_value() && std::isfinite(*r) &&
                       math::exact_eq(node_w, *r);
    if (lane.ctl && !out[li].measured) {
      if (const auto d = lane.ctl->observe(node_w, ss.rows.row(li))) {
        lane.trr.set_use_cheap(d->use_cheap);
      }
    }
  }

  // Phase 4: one SRR GEMM per MLP layer for the whole cohort.
  models.srr.predict_batch_into(ss.rows, ss.node_w, ss.comp, ss.srr);
  for (std::size_t li = 0; li < n; ++li) {
    out[li].cpu_w = ss.comp[li].cpu_w;
    out[li].mem_w = ss.comp[li].mem_w;
    out[li].tenants = 0;
  }
  if (tenant_pmcs.empty()) return;

  // Phase 5: K-way attribution on the committed node powers, tenant rows
  // held like the node row. A shared head runs one GEMM per MLP layer for
  // the cohort; a self-calibrating lane attributes with its own head.
  const std::size_t tf = tenant_pmcs.size() / n;
  ss.trows.resize(n, tf);
  for (std::size_t li = 0; li < n; ++li) {
    const auto row =
        lanes[ids[li]].tenant_hold.pass(tenant_pmcs.subspan(li * tf, tf));
    std::copy(row.begin(), row.end(), ss.trows.row(li).begin());
  }
  if (models.tenant_srr) {
    models.tenant_srr->predict_batch_multi_into(ss.trows, ss.node_w,
                                                ss.tenant_out, ss.tsrr);
    for (std::size_t li = 0; li < n; ++li) {
      out[li].tenants = ss.tenant_out.cols();
      const auto row = ss.tenant_out.row(li);
      std::copy(row.begin(), row.end(), out[li].tenant_w.begin());
    }
    return;
  }
  for (std::size_t li = 0; li < n; ++li) {
    SelfCal& sc = *lanes[ids[li]].self_cal;
    out[li].tenants = sc.head().config().outputs;
    sc.attribute(ss.trows.row(li), out[li], ss.own_head);
  }
}

}  // namespace highrpm::core
