// Adaptive-mode determinism: with a controller attached, FleetStepper must
// stay byte-identical to the serial HighRpm facade at every thread count
// and shard size — including across mode transitions, where lanes switch
// between the cheap decision-tree path and the full LSTM path mid-stream.
// The controller itself must agree too: per-lane mode / change / tick
// counters equal the serial facade's, so decisions are a pure function of
// (seed, trace) regardless of execution shape.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "highrpm/adapt/controller.hpp"
#include "highrpm/core/fleet.hpp"
#include "highrpm/core/highrpm.hpp"
#include "highrpm/math/matrix.hpp"
#include "highrpm/runtime/thread_pool.hpp"
#include "highrpm/sim/platform.hpp"
#include "highrpm/workloads/suites.hpp"

namespace highrpm::core {
namespace {

constexpr std::size_t kStreamTicks = 64;
constexpr std::uint64_t kSeed = 4091;

/// Adaptive config tuned so mode transitions are DRIVEN BY THE BUDGET, not
/// by trace-dependent score thresholds: up == down == 0 means the score
/// always votes Dense (any real stream has nonzero variance), so the token
/// bucket alone decides — with budget 300‰ and window 10 the controller
/// provably enters Dense at window 5 and drops back at window 6 inside the
/// 64-tick stream, exercising cheap->dense->cheap routing in every lane.
HighRpmConfig adaptive_config(bool online_finetune,
                              std::uint32_t budget_permille) {
  HighRpmConfig cfg;
  cfg.dynamic_trr.rnn.epochs = 8;
  cfg.dynamic_trr.online_finetune = online_finetune;
  cfg.srr.epochs = 20;
  cfg.adaptive = true;
  cfg.adapt.budget_permille = budget_permille;
  cfg.adapt.hold_windows = 1;
  cfg.adapt.up_threshold_w = 0.0;
  cfg.adapt.down_threshold_w = 0.0;
  return cfg;
}

HighRpm train_golden(bool online_finetune, std::uint32_t budget_permille) {
  measure::Collector collector;
  std::vector<measure::CollectedRun> runs;
  runs.push_back(collector.collect(sim::PlatformConfig::arm(),
                                   workloads::fft(), 160, kSeed));
  runs.push_back(collector.collect(sim::PlatformConfig::arm(),
                                   workloads::stream(), 160, kSeed + 1));
  HighRpm golden(adaptive_config(online_finetune, budget_permille));
  golden.initial_learning(runs);
  return golden;
}

std::vector<measure::CollectedRun> collect_streams(std::size_t nodes) {
  measure::Collector collector;
  std::vector<measure::CollectedRun> runs;
  runs.reserve(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    const auto workload = (i % 2 == 0) ? workloads::hpcg() : workloads::fft();
    runs.push_back(collector.collect(sim::PlatformConfig::arm(), workload,
                                     kStreamTicks, kSeed + 1000 + i));
  }
  return runs;
}

/// Same fault-injection shape as the fleet determinism suite: a NaN PMC
/// cell and a NaN reading on node 1 prove the degradation mirror and the
/// controller's NaN exclusion agree between serial and fleet.
struct TickInput {
  std::vector<double> pmcs;
  std::optional<double> reading;
};

TickInput tick_input(const measure::CollectedRun& run, std::size_t node,
                     std::size_t t) {
  TickInput in;
  const auto row = run.dataset.features().row(t);
  in.pmcs.assign(row.begin(), row.end());
  if (run.measured[t]) in.reading = run.dataset.target("P_NODE")[t];
  if (node == 1 && t == 17) {
    in.pmcs[0] = std::numeric_limits<double>::quiet_NaN();
  }
  if (node == 1 && t == 30) {
    in.reading = std::numeric_limits<double>::quiet_NaN();
  }
  return in;
}

/// Controller counters that must agree bit-for-bit across execution shapes.
struct CtlState {
  adapt::Mode mode{};
  std::uint64_t mode_changes = 0;
  std::uint64_t dense_ticks = 0;
  std::uint64_t sparse_ticks = 0;
  std::uint64_t tokens = 0;
  std::uint64_t windows = 0;
  double last_score = 0.0;
};

CtlState ctl_state(const adapt::Controller& c) {
  return {c.mode(),   c.mode_changes(),      c.dense_ticks(), c.sparse_ticks(),
          c.tokens(), c.windows_observed(),  c.last_score()};
}

struct SerialResult {
  std::vector<std::vector<PowerEstimate>> estimates;
  std::vector<CtlState> controllers;
};

SerialResult serial_reference(const HighRpm& golden,
                              const std::vector<measure::CollectedRun>& runs) {
  SerialResult out;
  out.estimates.resize(runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    HighRpm node = golden;
    node.reset_stream();
    out.estimates[i].reserve(kStreamTicks);
    for (std::size_t t = 0; t < kStreamTicks; ++t) {
      const TickInput in = tick_input(runs[i], i, t);
      out.estimates[i].push_back(node.on_tick(in.pmcs, in.reading));
    }
    const adapt::Controller* ctl = node.controller();
    EXPECT_NE(ctl, nullptr);
    out.controllers.push_back(ctl_state(*ctl));
  }
  return out;
}

class AdaptiveIdentityTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
 protected:
  static void SetUpTestSuite() {
    // Budget 300: oscillates cheap->dense->cheap inside the stream.
    shared_golden_ = new HighRpm(
        train_golden(/*online_finetune=*/false, /*budget_permille=*/300));
    // Finetune + unconstrained budget: enters Dense at the first boundary
    // and pins there; fine-tuning resumes once off the cheap path.
    finetune_golden_ = new HighRpm(
        train_golden(/*online_finetune=*/true, /*budget_permille=*/1000));
  }
  static void TearDownTestSuite() {
    delete shared_golden_;
    delete finetune_golden_;
    shared_golden_ = nullptr;
    finetune_golden_ = nullptr;
  }
  void TearDown() override { runtime::set_thread_count(0); }

  std::size_t threads() const { return std::get<0>(GetParam()); }
  std::size_t shard_lanes() const { return std::get<1>(GetParam()); }

  void expect_fleet_matches_serial(const HighRpm& golden, std::size_t nodes,
                                   std::uint64_t expect_min_changes) {
    const auto runs = collect_streams(nodes);
    runtime::set_thread_count(1);
    const SerialResult reference = serial_reference(golden, runs);
    runtime::set_thread_count(threads());

    FleetConfig cfg;
    cfg.shard_lanes = shard_lanes();
    FleetStepper fleet(golden, nodes, cfg);

    math::Matrix pmcs(nodes, runs[0].dataset.features().cols());
    std::vector<std::optional<double>> readings(nodes);
    std::vector<PowerEstimate> out(nodes);
    for (std::size_t t = 0; t < kStreamTicks; ++t) {
      for (std::size_t i = 0; i < nodes; ++i) {
        const TickInput in = tick_input(runs[i], i, t);
        auto dst = pmcs.row(i);
        std::copy(in.pmcs.begin(), in.pmcs.end(), dst.begin());
        readings[i] = in.reading;
      }
      fleet.step_tick(pmcs, readings, out);
      for (std::size_t i = 0; i < nodes; ++i) {
        ASSERT_EQ(out[i].node_w, reference.estimates[i][t].node_w)
            << "node " << i << " tick " << t << " diverged at " << threads()
            << " threads, shard_lanes " << shard_lanes();
        ASSERT_EQ(out[i].cpu_w, reference.estimates[i][t].cpu_w)
            << "node " << i << " tick " << t;
        ASSERT_EQ(out[i].mem_w, reference.estimates[i][t].mem_w)
            << "node " << i << " tick " << t;
        ASSERT_EQ(out[i].measured, reference.estimates[i][t].measured)
            << "node " << i << " tick " << t;
      }
    }

    // The controllers themselves must agree, not just the estimates.
    for (std::size_t i = 0; i < nodes; ++i) {
      const auto& lane = fleet.lane(i).ctl;
      ASSERT_TRUE(lane.has_value());
      const CtlState got = ctl_state(*lane);
      const CtlState& want = reference.controllers[i];
      EXPECT_EQ(got.mode, want.mode) << "node " << i;
      EXPECT_EQ(got.mode_changes, want.mode_changes) << "node " << i;
      EXPECT_EQ(got.dense_ticks, want.dense_ticks) << "node " << i;
      EXPECT_EQ(got.sparse_ticks, want.sparse_ticks) << "node " << i;
      EXPECT_EQ(got.tokens, want.tokens) << "node " << i;
      EXPECT_EQ(got.windows, want.windows) << "node " << i;
      EXPECT_EQ(got.last_score, want.last_score) << "node " << i;
      // The scenario is built so BOTH paths actually run: a stream that
      // never transitions would vacuously pass the identity checks.
      EXPECT_GE(got.mode_changes, expect_min_changes) << "node " << i;
      EXPECT_GT(got.dense_ticks, 0u) << "node " << i;
      EXPECT_GT(got.sparse_ticks, 0u) << "node " << i;
    }
  }

  static HighRpm* shared_golden_;
  static HighRpm* finetune_golden_;
};

HighRpm* AdaptiveIdentityTest::shared_golden_ = nullptr;
HighRpm* AdaptiveIdentityTest::finetune_golden_ = nullptr;

TEST_P(AdaptiveIdentityTest, SharedRnnAdaptiveMatchesSerialBitForBit) {
  // Budget-limited: every lane oscillates Sparse -> Dense -> Sparse, so
  // the batched GEMM fast path must hand off to per-lane routing and back.
  for (const std::size_t nodes : {std::size_t{1}, std::size_t{3},
                                  std::size_t{5}}) {
    expect_fleet_matches_serial(*shared_golden_, nodes,
                                /*expect_min_changes=*/2);
  }
}

TEST_P(AdaptiveIdentityTest, FinetuneAdaptiveMatchesSerialBitForBit) {
  for (const std::size_t nodes : {std::size_t{1}, std::size_t{4}}) {
    expect_fleet_matches_serial(*finetune_golden_, nodes,
                                /*expect_min_changes=*/1);
  }
}

TEST_P(AdaptiveIdentityTest, ResetStreamsReplaysAdaptiveRunIdentically) {
  const std::size_t nodes = 3;
  const auto runs = collect_streams(nodes);
  runtime::set_thread_count(threads());
  FleetConfig cfg;
  cfg.shard_lanes = shard_lanes();
  FleetStepper fleet(*shared_golden_, nodes, cfg);

  math::Matrix pmcs(nodes, runs[0].dataset.features().cols());
  std::vector<std::optional<double>> readings(nodes);
  std::vector<PowerEstimate> out(nodes);
  const auto play = [&] {
    std::vector<std::vector<PowerEstimate>> all(nodes);
    for (std::size_t t = 0; t < kStreamTicks; ++t) {
      for (std::size_t i = 0; i < nodes; ++i) {
        const TickInput in = tick_input(runs[i], i, t);
        auto dst = pmcs.row(i);
        std::copy(in.pmcs.begin(), in.pmcs.end(), dst.begin());
        readings[i] = in.reading;
      }
      fleet.step_tick(pmcs, readings, out);
      for (std::size_t i = 0; i < nodes; ++i) all[i].push_back(out[i]);
    }
    return all;
  };
  const auto first = play();
  std::vector<CtlState> first_ctl;
  for (std::size_t i = 0; i < nodes; ++i) {
    first_ctl.push_back(ctl_state(*fleet.lane(i).ctl));
  }
  ASSERT_GT(first_ctl[0].mode_changes, 0u);

  fleet.reset_streams();
  for (std::size_t i = 0; i < nodes; ++i) {
    // reset_streams must rewind the controller too, not just the ring.
    const auto& ctl = fleet.lane(i).ctl;
    ASSERT_TRUE(ctl.has_value());
    EXPECT_EQ(ctl->ticks_observed(), 0u);
    EXPECT_EQ(ctl->mode(), adapt::Mode::kSparse);
    EXPECT_EQ(ctl->tokens(), 0u);
  }
  const auto second = play();
  for (std::size_t i = 0; i < nodes; ++i) {
    for (std::size_t t = 0; t < kStreamTicks; ++t) {
      ASSERT_EQ(first[i][t].node_w, second[i][t].node_w)
          << "node " << i << " tick " << t;
      ASSERT_EQ(first[i][t].cpu_w, second[i][t].cpu_w);
      ASSERT_EQ(first[i][t].mem_w, second[i][t].mem_w);
      ASSERT_EQ(first[i][t].measured, second[i][t].measured);
    }
    const CtlState replay = ctl_state(*fleet.lane(i).ctl);
    EXPECT_EQ(replay.mode, first_ctl[i].mode);
    EXPECT_EQ(replay.mode_changes, first_ctl[i].mode_changes);
    EXPECT_EQ(replay.dense_ticks, first_ctl[i].dense_ticks);
    EXPECT_EQ(replay.tokens, first_ctl[i].tokens);
  }
}

TEST(AdaptiveIdentity, NonAdaptiveFleetHasNoLaneControllers) {
  HighRpmConfig cfg;
  cfg.dynamic_trr.rnn.epochs = 4;
  cfg.srr.epochs = 10;
  measure::Collector collector;
  std::vector<measure::CollectedRun> runs;
  runs.push_back(collector.collect(sim::PlatformConfig::arm(),
                                   workloads::fft(), 120, kSeed + 7));
  HighRpm golden(cfg);
  golden.initial_learning(runs);
  EXPECT_EQ(golden.controller(), nullptr);
  FleetStepper fleet(golden, 2);
  EXPECT_FALSE(fleet.lane(0).ctl.has_value());
  EXPECT_FALSE(fleet.lane(1).ctl.has_value());
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsByShardLanes, AdaptiveIdentityTest,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 8),
                       ::testing::Values<std::size_t>(2, 64)),
    [](const auto& param_info) {
      return "threads" + std::to_string(std::get<0>(param_info.param)) +
             "_lanes" + std::to_string(std::get<1>(param_info.param));
    });

}  // namespace
}  // namespace highrpm::core
