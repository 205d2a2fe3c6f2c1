// Core / ml / adapt layer probe. Runs after the timed phase of a traced
// run, on objects cloned from the workload's golden instance and fed the
// workload's own pooled ticks, so each layer is timed on the shapes and
// values it sees in that workload. Each stage is timed around calls into
// the layer's public functions; the first kWarmTicks ticks fill the ring
// windows and the scratch buffers and are not counted.
#include <algorithm>
#include <optional>

#include "harness.hpp"
#include "highrpm/adapt/controller.hpp"
#include "highrpm/core/fleet.hpp"
#include "highrpm/core/static_trr.hpp"
#include "highrpm/sim/pmc.hpp"
#include "layers.hpp"

namespace e2e {

namespace {

constexpr std::size_t kWarmTicks = 20;  // two full IM windows
constexpr std::size_t kProbeTicks = 200;

using highrpm::math::Matrix;

/// Per-call cost accumulated over the timed ticks.
struct Cost {
  std::uint64_t ns = 0;
  std::uint64_t calls = 0;
  void add(Clock::time_point a, Clock::time_point b, std::uint64_t n) {
    ns += ns_between(a, b);
    calls += n;
  }
  double per_call() const {
    return calls == 0 ? 0.0
                      : static_cast<double>(ns) / static_cast<double>(calls);
  }
};

/// Work counts of one model, from its public config (computed, not measured).
void report_model_counts(const core::HighRpm& golden, Report& rep) {
  const auto& rnn = golden.dynamic_trr().model();
  const auto& rc = rnn.config();
  const bool lstm = rc.cell == highrpm::ml::CellType::kLstm;
  const std::size_t gates = (lstm ? 4 : 3) * rc.units;
  const std::size_t window = golden.dynamic_trr().config().miss_interval;
  std::size_t per_step = 0;
  for (std::size_t l = 0; l < rc.layers; ++l) {
    const std::size_t in = l == 0 ? rnn.input_dim() : rc.units;
    per_step += gates * (in + rc.units);
  }
  per_step += rc.units;  // output head
  rep.add(Kind::kLayer, "ml.rnn_macs_per_lane_tick",
          static_cast<double>(window * per_step), "count");
  // LSTM: sigmoid i, f, o + tanh g and tanh(c) per unit; GRU: z, r, n.
  rep.add(Kind::kLayer, "ml.rnn_activations_per_lane_tick",
          static_cast<double>(window * rc.layers * (lstm ? 5 : 3) * rc.units),
          "count");

  const auto& net = golden.srr().network();
  std::size_t macs = 0, acts = 0, in = net.input_dim();
  for (const std::size_t h : net.config().hidden) {
    macs += in * h;
    acts += h;
    in = h;
  }
  macs += in * net.output_dim();
  rep.add(Kind::kLayer, "ml.mlp_macs_per_row", static_cast<double>(macs),
          "count");
  rep.add(Kind::kLayer, "ml.mlp_activations_per_row", static_cast<double>(acts),
          "count");
}

}  // namespace

double run_layer_probe(const core::HighRpm& golden, const TickPool& pool,
                       std::size_t cohort,
                       std::span<const measure::CollectedRun> logs,
                       Tracer& tr, Report& rep) {
  const std::size_t lanes = cohort;
  const std::size_t f = highrpm::sim::kNumPmcEvents;
  const std::size_t tenants =
      golden.attribution_trained() ? golden.config().tenants : 0;
  const std::size_t ticks = kWarmTicks + kProbeTicks;

  // Lane li replays node li's ticks, exactly as the daemon saw them.
  std::vector<Matrix> rows(ticks, Matrix(lanes, f));
  std::vector<Matrix> trows(tenants > 0 ? ticks : 0,
                            Matrix(lanes, tenants * f));
  std::vector<std::vector<std::optional<double>>> readings(
      ticks, std::vector<std::optional<double>>(lanes));
  for (std::size_t t = 0; t < ticks; ++t) {
    for (std::size_t li = 0; li < lanes; ++li) {
      const measure::StreamTick& st = pool.at(li, t);
      std::copy(st.pmcs.begin(), st.pmcs.end(), rows[t].row(li).begin());
      if (tenants > 0) {
        const auto dst = trows[t].row(li);
        std::copy(st.tenant_pmcs.begin(),
                  st.tenant_pmcs.begin() + static_cast<std::ptrdiff_t>(dst.size()),
                  dst.begin());
      }
      if (st.has_reading) readings[t][li] = st.reading_w;
    }
  }
  const std::uint32_t root = tr.open("probe", Tracer::kNone, 0, Clock::now());

  // core.step_cohort: the whole batched tick, one cohort of `lanes`.
  core::FleetStepper fleet(golden, lanes);
  std::vector<std::size_t> ids(lanes);
  for (std::size_t li = 0; li < lanes; ++li) ids[li] = li;
  core::FleetStepper::Cohort scratch;
  std::vector<core::PowerEstimate> out(lanes);
  std::vector<std::vector<double>> node_w(ticks, std::vector<double>(lanes));
  Cost step;
  for (std::size_t t = 0; t < ticks; ++t) {
    const auto a = Clock::now();
    fleet.step_cohort(ids, rows[t], 0, readings[t], out, scratch,
                      tenants > 0 ? &trows[t] : nullptr, 0);
    const auto b = Clock::now();
    if (t >= kWarmTicks) step.add(a, b, lanes);
    tr.add("probe.step_cohort", root, t, a, b);
    for (std::size_t li = 0; li < lanes; ++li) node_w[t][li] = out[li].node_w;
  }

  // core.window_pack (step_prepare + pack_window_into) and ml.rnn_batch on
  // per-lane DynamicTrr clones; step_commit closes each tick, untimed.
  std::vector<core::DynamicTrr> trrs(lanes, golden.dynamic_trr());
  const auto& rnn = golden.dynamic_trr().model();
  std::vector<core::DynamicTrr::StepPrep> preps(lanes);
  Matrix windows, rnn_out;
  highrpm::ml::SequenceRegressor::BatchWorkspace ws;
  Cost pack, rnn_cost;
  for (std::size_t t = 0; t < ticks; ++t) {
    const auto a = Clock::now();
    for (std::size_t li = 0; li < lanes; ++li) {
      preps[li] = trrs[li].step_prepare(rows[t].row(li), readings[t][li]);
    }
    const std::size_t len = preps[0].rows;  // lanes advance in lockstep
    windows.resize(lanes * len, f + 1);
    for (std::size_t li = 0; li < lanes; ++li) {
      trrs[li].pack_window_into(windows, li * len);
    }
    const auto b = Clock::now();
    rnn.predict_batch_into(windows, lanes, rnn_out, ws);
    const auto c = Clock::now();
    for (std::size_t li = 0; li < lanes; ++li) {
      trrs[li].step_commit(preps[li], rnn_out(li, len - 1));
    }
    if (t >= kWarmTicks) {
      pack.add(a, b, lanes);
      rnn_cost.add(b, c, lanes);
    }
    tr.add("probe.window_pack", root, t, a, b);
    tr.add("probe.rnn_batch", root, t, b, c);
  }

  // SRR: batched, the bare MLP under it, and the scalar per-row path.
  const core::Srr& srr = golden.srr();
  core::Srr::BatchScratch srr_scratch;
  std::vector<core::ComponentEstimate> comp(lanes);
  const auto& net = srr.network();
  Matrix x(lanes, net.input_dim()), mlp_out;
  highrpm::ml::Mlp::BatchScratch mlp_scratch;
  core::Srr::Scratch one_scratch;
  Cost srr_batch, mlp_batch, srr_one;
  for (std::size_t t = kWarmTicks; t < ticks; ++t) {
    auto a = Clock::now();
    srr.predict_batch_into(rows[t], node_w[t], comp, srr_scratch);
    auto b = Clock::now();
    srr_batch.add(a, b, lanes);
    tr.add("probe.srr_batch", root, t, a, b);

    // [P_Node, PMC...] rows (PMC only for a network without P_Node).
    const std::size_t off = net.input_dim() > f ? 1 : 0;
    for (std::size_t li = 0; li < lanes; ++li) {
      const auto dst = x.row(li);
      if (off == 1) dst[0] = node_w[t][li];
      const auto src = rows[t].row(li);
      std::copy(src.begin(), src.begin() + static_cast<std::ptrdiff_t>(
                                               dst.size() - off),
                dst.begin() + static_cast<std::ptrdiff_t>(off));
    }
    a = Clock::now();
    net.predict_batch_into(x, mlp_out, mlp_scratch);
    b = Clock::now();
    mlp_batch.add(a, b, lanes);
    tr.add("probe.mlp_batch", root, t, a, b);

    a = Clock::now();
    for (std::size_t li = 0; li < lanes; ++li) {
      comp[li] = srr.predict_one(rows[t].row(li), node_w[t][li], one_scratch);
    }
    b = Clock::now();
    srr_one.add(a, b, lanes);
    tr.add("probe.srr_predict_one", root, t, a, b);
  }

  // Attribution head and cheap decision-tree path: only where the workload
  // runs them, so reported as diagnostics.
  if (tenants > 0) {
    core::Srr::BatchScratch attr_scratch;
    Matrix attr_out;
    Cost attr;
    for (std::size_t t = kWarmTicks; t < ticks; ++t) {
      const auto a = Clock::now();
      golden.attribution_srr().predict_batch_multi_into(trows[t], node_w[t],
                                                        attr_out, attr_scratch);
      const auto b = Clock::now();
      attr.add(a, b, lanes);
      tr.add("probe.attr_batch", root, t, a, b);
    }
    rep.add(Kind::kDiagnostic, "core.attr_batch_ns_per_row", attr.per_call(),
            "ns");
  }
  if (golden.dynamic_trr().cheap_fitted()) {
    Cost cheap;
    std::vector<double> est(lanes);
    for (std::size_t t = kWarmTicks; t < ticks; ++t) {
      for (std::size_t li = 0; li < lanes; ++li) {
        preps[li] = trrs[li].step_prepare(rows[t].row(li), readings[t][li]);
      }
      const auto a = Clock::now();
      for (std::size_t li = 0; li < lanes; ++li) {
        est[li] = trrs[li].predict_prepared_cheap(preps[li]);
      }
      const auto b = Clock::now();
      for (std::size_t li = 0; li < lanes; ++li) {
        trrs[li].step_commit(preps[li], est[li]);
      }
      cheap.add(a, b, lanes);
      tr.add("probe.cheap_predict", root, t, a, b);
    }
    rep.add(Kind::kDiagnostic, "core.cheap_predict_ns", cheap.per_call(), "ns");
  }

  // adapt: a standalone controller per lane over the lane's committed
  // estimates (the first observation sizes its PMC mirror; not counted).
  highrpm::adapt::ControllerConfig acfg = golden.config().adapt;
  acfg.window = golden.config().miss_interval;
  std::vector<highrpm::adapt::Controller> ctls(
      lanes, highrpm::adapt::Controller(acfg));
  Cost observe;
  for (std::size_t t = 0; t < ticks; ++t) {
    const auto a = Clock::now();
    for (std::size_t li = 0; li < lanes; ++li) {
      ctls[li].observe(node_w[t][li], rows[t].row(li));
    }
    const auto b = Clock::now();
    if (t >= kWarmTicks) observe.add(a, b, lanes);
    tr.add("probe.adapt_observe", root, t, a, b);
  }

  // StaticTRR offline restoration of whole logs, per tick (ns per tick is
  // us per kilotick).
  Cost restore;
  for (std::size_t i = 0; i < logs.size(); ++i) {
    const auto a = Clock::now();
    const auto restored =
        core::restore_node_power(logs[i], golden.config().static_trr);
    const auto b = Clock::now();
    restore.add(a, b, restored.size());
    tr.add("probe.static_restore", root, i, a, b);
  }
  tr.close(root, Clock::now());

  rep.add(Kind::kLayer, "core.step_cohort_ns_per_lane", step.per_call(), "ns");
  rep.add(Kind::kLayer, "core.window_pack_ns_per_lane", pack.per_call(), "ns");
  rep.add(Kind::kLayer, "core.srr_batch_ns_per_row", srr_batch.per_call(),
          "ns");
  rep.add(Kind::kLayer, "core.srr_predict_one_ns", srr_one.per_call(), "ns");
  rep.add(Kind::kLayer, "core.static_restore_us_per_ktick", restore.per_call(),
          "us");
  rep.add(Kind::kLayer, "ml.rnn_batch_ns_per_lane", rnn_cost.per_call(), "ns");
  rep.add(Kind::kLayer, "ml.mlp_batch_ns_per_row", mlp_batch.per_call(), "ns");
  rep.add(Kind::kLayer, "adapt.observe_ns", observe.per_call(), "ns");
  report_model_counts(golden, rep);
  return step.per_call();
}

}  // namespace e2e
