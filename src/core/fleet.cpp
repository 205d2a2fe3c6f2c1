#include "highrpm/core/fleet.hpp"

#include <algorithm>
#include <stdexcept>

#include "highrpm/obs/obs.hpp"
#include "highrpm/runtime/parallel_for.hpp"

namespace highrpm::core {

FleetStepper::FleetStepper(const HighRpm& golden, std::size_t nodes,
                           FleetConfig cfg)
    : cfg_(cfg),
      srr_(golden.srr()),
      tenant_srr_(golden.attribution_srr()),
      shared_model_(golden.dynamic_trr().model()) {
  if (!golden.trained()) {
    throw std::invalid_argument("FleetStepper: golden instance untrained");
  }
  if (golden.config().tenants > 0 && golden.attribution_trained()) {
    tenants_ = golden.config().tenants;
  }
  if (nodes == 0) {
    throw std::invalid_argument("FleetStepper: fleet must have >= 1 node");
  }
  // Boundary contract (see FleetConfig::shard_lanes): zero is a config
  // error, not a request for one-lane shards; above-fleet values mean "one
  // full shard".
  if (cfg_.shard_lanes == 0) {
    throw std::invalid_argument(
        "FleetStepper: FleetConfig::shard_lanes must be >= 1");
  }
  if (cfg_.shard_lanes > nodes) cfg_.shard_lanes = nodes;
  // With online fine-tuning off, no lane ever mutates its RNN weights, so
  // every lane's model stays byte-identical to the golden copy and windows
  // can batch through shared_model_. With it on, weights diverge per lane
  // after the first accepted reading — each lane must predict with its own
  // model.
  shared_rnn_ = !golden.config().dynamic_trr.online_finetune;
  // Every lane starts as the golden's lane on a fresh stream.
  lanes_.assign(nodes, golden.lane());
  for (Lane& lane : lanes_) lane.reset_stream();
  const std::size_t n_shards = (nodes + cfg_.shard_lanes - 1) / cfg_.shard_lanes;
  shards_.resize(n_shards);
  for (std::size_t s = 0; s < n_shards; ++s) {
    Shard& ss = shards_[s];
    ss.begin = s * cfg_.shard_lanes;
    ss.end = std::min(nodes, ss.begin + cfg_.shard_lanes);
    ss.ids.resize(ss.end - ss.begin);
    for (std::size_t li = 0; li < ss.ids.size(); ++li) {
      ss.ids[li] = ss.begin + li;
    }
  }
}

void FleetStepper::reset_streams() {
  for (Lane& lane : lanes_) lane.reset_stream();
}

LaneModels FleetStepper::models() const {
  const bool own_heads = lanes_.front().self_cal.has_value();
  return {srr_, own_heads ? nullptr : &tenant_srr_,
          shared_rnn_ ? &shared_model_ : nullptr};
}

void FleetStepper::step_tick(const math::Matrix& pmcs,
                             std::span<const std::optional<double>> readings,
                             std::span<PowerEstimate> out,
                             const math::Matrix* tenant_pmcs) {
  static obs::Histogram& shard_hist =
      obs::Registry::instance().histogram("core.fleet.shard_tick_ns");
  if (pmcs.rows() != lanes_.size() || readings.size() != lanes_.size() ||
      out.size() != lanes_.size()) {
    throw std::invalid_argument("FleetStepper::step_tick: size mismatch");
  }
  if (tenant_pmcs && tenant_pmcs->rows() != lanes_.size()) {
    throw std::invalid_argument(
        "FleetStepper::step_tick: tenant matrix row count != fleet size");
  }
  // One parallel_for index per shard; each shard owns its lane range and
  // scratch, so scheduling only changes when a shard runs, never what it
  // computes. A shard's lanes are consecutive rows of the fleet matrix, so
  // the shard tick is a step_cohort over positional subspans — no staging
  // copies.
  runtime::parallel_for(shards_.size(), [&](std::size_t s) {
    Shard& ss = shards_[s];
    const std::size_t lanes = ss.end - ss.begin;
    const obs::Span span(shard_hist);
    step_cohort(ss.ids, pmcs, ss.begin, readings.subspan(ss.begin, lanes),
                out.subspan(ss.begin, lanes), ss.scratch, tenant_pmcs,
                ss.begin);
  });
}

void FleetStepper::step_cohort(std::span<const std::size_t> lane_ids,
                               const math::Matrix& pmcs, std::size_t pmc_row0,
                               std::span<const std::optional<double>> readings,
                               std::span<PowerEstimate> out, Cohort& scratch,
                               const math::Matrix* tenant_pmcs,
                               std::size_t tenant_row0) {
  static obs::Counter& lane_ticks =
      obs::Registry::instance().counter("core.fleet.lane_ticks");
  const std::size_t lanes = lane_ids.size();
  if (lanes == 0) return;
  if (pmcs.rows() < pmc_row0 + lanes || readings.size() != lanes ||
      out.size() != lanes) {
    throw std::invalid_argument("FleetStepper::step_cohort: size mismatch");
  }
  if (tenant_pmcs) {
    if (tenants_ == 0) {
      throw std::logic_error(
          "FleetStepper::step_cohort: tenant rows given but the golden "
          "instance carried no trained attribution head");
    }
    if (tenant_pmcs->cols() != tenants_ * sim::kNumPmcEvents ||
        tenant_pmcs->rows() < tenant_row0 + lanes) {
      throw std::invalid_argument(
          "FleetStepper::step_cohort: tenant matrix shape mismatch");
    }
  }
  lane_ticks.add(lanes);
  // A cohort's rows are consecutive rows of the caller's matrices.
  const auto rows = [lanes](const math::Matrix& m, std::size_t row0) {
    return m.flat().subspan(row0 * m.cols(), lanes * m.cols());
  };
  step_lanes(models(), lanes_, lane_ids, rows(pmcs, pmc_row0), readings, out,
             scratch,
             tenant_pmcs ? rows(*tenant_pmcs, tenant_row0)
                         : std::span<const double>{});
}

}  // namespace highrpm::core
