// FleetStepper's determinism contract: every lane of a batched fleet tick
// is byte-identical to the serial per-node path (a HighRpm clone stepped
// alone through on_tick), at every fleet size, shard size, and thread
// count, with the RNN fast path (shared weights, one GEMM per layer) and
// the per-lane fallback (online fine-tuning) alike. These tests join the
// seed x threads identity suite: exact floating-point equality, no
// tolerances.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "highrpm/core/fleet.hpp"
#include "highrpm/core/highrpm.hpp"
#include "highrpm/math/matrix.hpp"
#include "highrpm/runtime/thread_pool.hpp"
#include "highrpm/sim/platform.hpp"
#include "highrpm/sim/pmc.hpp"
#include "highrpm/workloads/suites.hpp"

namespace highrpm::core {
namespace {

constexpr std::size_t kStreamTicks = 64;
constexpr std::uint64_t kSeed = 2023;

HighRpmConfig fleet_config(bool online_finetune) {
  HighRpmConfig cfg;
  cfg.dynamic_trr.rnn.epochs = 8;
  cfg.dynamic_trr.online_finetune = online_finetune;
  cfg.srr.epochs = 20;
  return cfg;
}

HighRpm train_golden(bool online_finetune) {
  measure::Collector collector;
  std::vector<measure::CollectedRun> runs;
  runs.push_back(collector.collect(sim::PlatformConfig::arm(),
                                   workloads::fft(), 160, kSeed));
  runs.push_back(collector.collect(sim::PlatformConfig::arm(),
                                   workloads::stream(), 160, kSeed + 1));
  HighRpm golden(fleet_config(online_finetune));
  golden.initial_learning(runs);
  return golden;
}

/// Per-node deployment streams, fixed once per suite. Node i's trace
/// depends only on i, so the serial reference and every fleet shape replay
/// identical inputs.
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

/// One tick's inputs for node i, with fault injection on node 1: a NaN PMC
/// cell at tick 17 (held-row substitution) and a NaN reading at tick 30
/// (treated as missed) exercise the degradation mirror in both paths.
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

/// Serial reference: each node is a HighRpm clone stepped alone.
std::vector<std::vector<PowerEstimate>> serial_reference(
    const HighRpm& golden, const std::vector<measure::CollectedRun>& runs) {
  std::vector<std::vector<PowerEstimate>> out(runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    HighRpm node = golden;
    node.reset_stream();
    out[i].reserve(kStreamTicks);
    for (std::size_t t = 0; t < kStreamTicks; ++t) {
      const TickInput in = tick_input(runs[i], i, t);
      out[i].push_back(node.on_tick(in.pmcs, in.reading));
    }
  }
  return out;
}

class FleetDeterminismTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
 protected:
  static void SetUpTestSuite() {
    shared_golden_ = new HighRpm(train_golden(/*online_finetune=*/false));
    finetune_golden_ = new HighRpm(train_golden(/*online_finetune=*/true));
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

  /// Step a FleetStepper over the streams and assert byte identity with
  /// the serial reference for every lane at every tick.
  void expect_fleet_matches_serial(const HighRpm& golden,
                                   std::size_t nodes) {
    const auto runs = collect_streams(nodes);
    // Serial reference at 1 thread; the fleet at the swept thread count.
    runtime::set_thread_count(1);
    const auto reference = serial_reference(golden, runs);
    runtime::set_thread_count(threads());

    FleetConfig cfg;
    cfg.shard_lanes = shard_lanes();
    FleetStepper fleet(golden, nodes, cfg);
    ASSERT_EQ(fleet.nodes(), nodes);
    ASSERT_EQ(fleet.shard_count(),
              (nodes + shard_lanes() - 1) / shard_lanes());
    ASSERT_EQ(fleet.shared_rnn(),
              !golden.config().dynamic_trr.online_finetune);

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
        // Exact equality on purpose: the contract is byte identity, not
        // tolerance-level agreement.
        ASSERT_EQ(out[i].node_w, reference[i][t].node_w)
            << "node " << i << " tick " << t << " node_w diverged at "
            << threads() << " threads, shard_lanes " << shard_lanes();
        ASSERT_EQ(out[i].cpu_w, reference[i][t].cpu_w)
            << "node " << i << " tick " << t;
        ASSERT_EQ(out[i].mem_w, reference[i][t].mem_w)
            << "node " << i << " tick " << t;
        ASSERT_EQ(out[i].measured, reference[i][t].measured)
            << "node " << i << " tick " << t;
      }
    }
  }

  static HighRpm* shared_golden_;
  static HighRpm* finetune_golden_;
};

HighRpm* FleetDeterminismTest::shared_golden_ = nullptr;
HighRpm* FleetDeterminismTest::finetune_golden_ = nullptr;

TEST_P(FleetDeterminismTest, SharedRnnFleetMatchesSerialBitForBit) {
  // Shared weights: the one-GEMM-per-layer cross-node fast path. 70 nodes
  // at 64 lanes is one full shard plus a ragged 6-lane one, so the second
  // shard's rows start mid-matrix.
  EXPECT_THROW(FleetStepper(*shared_golden_, 0), std::invalid_argument);
  for (const std::size_t nodes : {std::size_t{1}, std::size_t{3},
                                  std::size_t{5}, std::size_t{70}}) {
    expect_fleet_matches_serial(*shared_golden_, nodes);
  }
}

TEST_P(FleetDeterminismTest, FinetuneFleetMatchesSerialBitForBit) {
  // Online fine-tuning on: weights diverge per lane, so the fleet falls
  // back to per-lane prediction — identity must still hold.
  for (const std::size_t nodes : {std::size_t{1}, std::size_t{4}}) {
    expect_fleet_matches_serial(*finetune_golden_, nodes);
  }
}

TEST_P(FleetDeterminismTest, ResetStreamsReplaysIdentically) {
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
  fleet.reset_streams();
  const auto second = play();
  for (std::size_t i = 0; i < nodes; ++i) {
    for (std::size_t t = 0; t < kStreamTicks; ++t) {
      ASSERT_EQ(first[i][t].node_w, second[i][t].node_w)
          << "node " << i << " tick " << t;
      ASSERT_EQ(first[i][t].cpu_w, second[i][t].cpu_w);
      ASSERT_EQ(first[i][t].mem_w, second[i][t].mem_w);
      ASSERT_EQ(first[i][t].measured, second[i][t].measured);
    }
  }
}

TEST(FleetStepper, RejectsUntrainedGoldenAndZeroNodes) {
  HighRpm untrained(fleet_config(false));
  EXPECT_THROW(FleetStepper(untrained, 4), std::invalid_argument);
}

/// Boundary contract of FleetConfig::shard_lanes (documented on the field):
/// 0 rejected, above-fleet clamped. One shared golden, trained once.
class FleetBoundaryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    golden_ = new HighRpm(train_golden(/*online_finetune=*/false));
  }
  static void TearDownTestSuite() {
    delete golden_;
    golden_ = nullptr;
  }
  static HighRpm* golden_;
};

HighRpm* FleetBoundaryTest::golden_ = nullptr;

TEST_F(FleetBoundaryTest, ShardLanesZeroThrows) {
  // Failing before: shard_lanes == 0 was silently rewritten to 1, turning
  // a config typo into a degenerate one-lane-per-shard fleet.
  FleetConfig cfg;
  cfg.shard_lanes = 0;
  EXPECT_THROW(FleetStepper(*golden_, 4, cfg), std::invalid_argument);
}

TEST_F(FleetBoundaryTest, ShardLanesAboveFleetClampsToOneShard) {
  const std::size_t nodes = 5;
  FleetConfig wide;
  wide.shard_lanes = 100 * nodes;
  FleetStepper clamped(*golden_, nodes, wide);
  EXPECT_EQ(clamped.shard_count(), 1u);

  // Clamping is a grouping choice, never a numeric one: the one-shard
  // fleet must match a two-lane-sharded fleet bit for bit.
  FleetConfig narrow;
  narrow.shard_lanes = 2;
  FleetStepper sharded(*golden_, nodes, narrow);
  const auto runs = collect_streams(nodes);
  math::Matrix pmcs(nodes, runs[0].dataset.features().cols());
  std::vector<std::optional<double>> readings(nodes);
  std::vector<PowerEstimate> a(nodes), b(nodes);
  for (std::size_t t = 0; t < kStreamTicks; ++t) {
    for (std::size_t i = 0; i < nodes; ++i) {
      const TickInput in = tick_input(runs[i], i, t);
      auto dst = pmcs.row(i);
      std::copy(in.pmcs.begin(), in.pmcs.end(), dst.begin());
      readings[i] = in.reading;
    }
    clamped.step_tick(pmcs, readings, a);
    sharded.step_tick(pmcs, readings, b);
    for (std::size_t i = 0; i < nodes; ++i) {
      ASSERT_EQ(a[i].node_w, b[i].node_w) << "node " << i << " tick " << t;
      ASSERT_EQ(a[i].cpu_w, b[i].cpu_w);
      ASSERT_EQ(a[i].mem_w, b[i].mem_w);
      ASSERT_EQ(a[i].measured, b[i].measured);
    }
  }
}

TEST_F(FleetBoundaryTest, CohortSplitMatchesStepTick) {
  // step_cohort with arbitrary disjoint lane-id sets (here interleaved odd
  // and even lanes, stepped through caller-owned scratch) must agree with
  // the whole-fleet step_tick bit for bit — the contract serve's consumer
  // pool depends on.
  const std::size_t nodes = 5;
  const auto runs = collect_streams(nodes);
  FleetStepper whole(*golden_, nodes);
  FleetStepper split(*golden_, nodes);
  FleetStepper::Cohort even_scratch, odd_scratch;
  const std::vector<std::size_t> even_ids{0, 2, 4};
  const std::vector<std::size_t> odd_ids{1, 3};

  const std::size_t f = runs[0].dataset.features().cols();
  math::Matrix pmcs(nodes, f);
  std::vector<std::optional<double>> readings(nodes);
  std::vector<PowerEstimate> ref(nodes);
  math::Matrix even_rows(even_ids.size(), f), odd_rows(odd_ids.size(), f);
  std::vector<std::optional<double>> even_readings(even_ids.size());
  std::vector<std::optional<double>> odd_readings(odd_ids.size());
  std::vector<PowerEstimate> even_out(even_ids.size());
  std::vector<PowerEstimate> odd_out(odd_ids.size());

  for (std::size_t t = 0; t < kStreamTicks; ++t) {
    for (std::size_t i = 0; i < nodes; ++i) {
      const TickInput in = tick_input(runs[i], i, t);
      auto dst = pmcs.row(i);
      std::copy(in.pmcs.begin(), in.pmcs.end(), dst.begin());
      readings[i] = in.reading;
    }
    whole.step_tick(pmcs, readings, ref);

    const auto stage = [&](const std::vector<std::size_t>& ids,
                           math::Matrix& rows,
                           std::vector<std::optional<double>>& rds) {
      for (std::size_t li = 0; li < ids.size(); ++li) {
        const auto src = pmcs.row(ids[li]);
        auto dst = rows.row(li);
        std::copy(src.begin(), src.end(), dst.begin());
        rds[li] = readings[ids[li]];
      }
    };
    stage(even_ids, even_rows, even_readings);
    stage(odd_ids, odd_rows, odd_readings);
    split.step_cohort(even_ids, even_rows, 0, even_readings, even_out,
                      even_scratch);
    split.step_cohort(odd_ids, odd_rows, 0, odd_readings, odd_out,
                      odd_scratch);

    const auto check = [&](const std::vector<std::size_t>& ids,
                           const std::vector<PowerEstimate>& out) {
      for (std::size_t li = 0; li < ids.size(); ++li) {
        ASSERT_EQ(out[li].node_w, ref[ids[li]].node_w)
            << "lane " << ids[li] << " tick " << t;
        ASSERT_EQ(out[li].cpu_w, ref[ids[li]].cpu_w);
        ASSERT_EQ(out[li].mem_w, ref[ids[li]].mem_w);
        ASSERT_EQ(out[li].measured, ref[ids[li]].measured);
      }
    };
    check(even_ids, even_out);
    check(odd_ids, odd_out);
  }
}

TEST_F(FleetBoundaryTest, CohortRejectsSizeMismatch) {
  FleetStepper fleet(*golden_, 3);
  FleetStepper::Cohort scratch;
  const std::vector<std::size_t> ids{0, 1};
  math::Matrix rows(1, sim::kNumPmcEvents);  // too few rows for two lanes
  std::vector<std::optional<double>> readings(2);
  std::vector<PowerEstimate> out(2);
  EXPECT_THROW(fleet.step_cohort(ids, rows, 0, readings, out, scratch),
               std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsByShardLanes, FleetDeterminismTest,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 8),
                       ::testing::Values<std::size_t>(2, 64)),
    [](const auto& param_info) {
      return "threads" + std::to_string(std::get<0>(param_info.param)) +
             "_lanes" + std::to_string(std::get<1>(param_info.param));
    });

// ---------------------------------------------------------------------------
// K-way attribution rides the same identity contract: per-tenant estimates
// from the batched fleet path are byte-identical to the serial facade's
// 3-arg on_tick at every thread count and shard shape, including the
// held-tenant-row fault path.

constexpr std::size_t kTenants = 2;

/// With self_cal, buffers and cooldown are short enough that a drifted
/// stream of a couple hundred ticks triggers recalibration.
HighRpm train_tenant_golden(bool self_cal) {
  measure::Collector collector;
  const std::vector<sim::Workload> mix{workloads::fft(), workloads::stream()};
  std::vector<measure::CollectedRun> runs;
  runs.push_back(collector.collect_tenants(sim::PlatformConfig::arm(), mix,
                                           160, kSeed + 50));
  runs.push_back(collector.collect_tenants(sim::PlatformConfig::arm(), mix,
                                           160, kSeed + 51));
  HighRpmConfig cfg = fleet_config(/*online_finetune=*/false);
  cfg.tenants = kTenants;
  cfg.tenant_srr.epochs = 30;
  if (self_cal) {
    cfg.self_cal = {.enabled = true,
                    .drift_threshold_pct = 8.0,
                    .buffer_ticks = 24,
                    .min_buffered = 8,
                    .cooldown_ticks = 40};
  }
  HighRpm golden(cfg);
  golden.initial_learning(runs);
  golden.fit_attribution(runs);
  return golden;
}

std::vector<measure::CollectedRun> collect_tenant_streams(std::size_t nodes) {
  measure::Collector collector;
  std::vector<measure::CollectedRun> runs;
  runs.reserve(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    const std::vector<sim::Workload> mix =
        (i % 2 == 0)
            ? std::vector<sim::Workload>{workloads::hpcg(), workloads::fft()}
            : std::vector<sim::Workload>{workloads::fft(),
                                         workloads::stream()};
    runs.push_back(collector.collect_tenants(sim::PlatformConfig::arm(), mix,
                                             kStreamTicks, kSeed + 2000 + i));
  }
  return runs;
}

/// Node-row NaN on node 1 tick 17 (node hold), tenant-row NaN on node 1
/// tick 21 (tenant hold) and on node 0 tick 0 (hold before any good row).
std::vector<double> tenant_row_input(const measure::CollectedRun& run,
                                     std::size_t node, std::size_t t) {
  const auto src = run.tenant_pmcs.row(t);
  std::vector<double> row(src.begin(), src.end());
  if ((node == 1 && t == 21) || (node == 0 && t == 0)) {
    row[2] = std::numeric_limits<double>::quiet_NaN();
  }
  return row;
}

/// Step serial facade clones of `golden` (at 1 thread) and `fleet` (at
/// `threads`) over the same tenant streams, asserting bit-identical node
/// and tenant estimates at every tick. `triggers[i]` receives node i's
/// facade self-calibration trigger count.
void expect_tenant_fleet_matches_facade(
    const HighRpm& golden, FleetStepper& fleet,
    const std::vector<measure::CollectedRun>& runs, std::size_t ticks,
    std::size_t threads, std::vector<std::size_t>& triggers) {
  const std::size_t nodes = runs.size();
  runtime::set_thread_count(1);
  std::vector<std::vector<PowerEstimate>> reference(nodes);
  triggers.assign(nodes, 0);
  for (std::size_t i = 0; i < nodes; ++i) {
    HighRpm node = golden;
    node.reset_stream();
    for (std::size_t t = 0; t < ticks; ++t) {
      const TickInput in = tick_input(runs[i], i, t);
      const auto trow = tenant_row_input(runs[i], i, t);
      reference[i].push_back(node.on_tick(in.pmcs, trow, in.reading));
    }
    triggers[i] = node.self_cal_triggers();
  }

  runtime::set_thread_count(threads);
  ASSERT_EQ(fleet.tenants(), kTenants);
  const std::size_t f = runs[0].dataset.features().cols();
  math::Matrix pmcs(nodes, f);
  math::Matrix trows(nodes, kTenants * sim::kNumPmcEvents);
  std::vector<std::optional<double>> readings(nodes);
  std::vector<PowerEstimate> out(nodes);
  for (std::size_t t = 0; t < ticks; ++t) {
    for (std::size_t i = 0; i < nodes; ++i) {
      const TickInput in = tick_input(runs[i], i, t);
      std::copy(in.pmcs.begin(), in.pmcs.end(), pmcs.row(i).begin());
      const auto trow = tenant_row_input(runs[i], i, t);
      std::copy(trow.begin(), trow.end(), trows.row(i).begin());
      readings[i] = in.reading;
    }
    fleet.step_tick(pmcs, readings, out, &trows);
    for (std::size_t i = 0; i < nodes; ++i) {
      ASSERT_EQ(out[i].node_w, reference[i][t].node_w)
          << "node " << i << " tick " << t;
      ASSERT_EQ(out[i].tenants, kTenants) << "node " << i << " tick " << t;
      for (std::size_t k = 0; k < kTenants; ++k) {
        ASSERT_EQ(out[i].tenant_w[k], reference[i][t].tenant_w[k])
            << "node " << i << " tick " << t << " tenant " << k << " at "
            << threads << " threads";
      }
    }
  }
}

class FleetAttributionTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
 protected:
  static void SetUpTestSuite() {
    golden_ = new HighRpm(train_tenant_golden(/*self_cal=*/false));
  }
  static void TearDownTestSuite() {
    delete golden_;
    golden_ = nullptr;
  }
  void TearDown() override { runtime::set_thread_count(0); }
  static HighRpm* golden_;
};

HighRpm* FleetAttributionTest::golden_ = nullptr;

TEST_P(FleetAttributionTest, TenantEstimatesMatchSerialBitForBit) {
  const std::size_t nodes = 5;
  const auto runs = collect_tenant_streams(nodes);
  FleetConfig cfg;
  cfg.shard_lanes = std::get<1>(GetParam());
  FleetStepper fleet(*golden_, nodes, cfg);
  std::vector<std::size_t> triggers;
  expect_tenant_fleet_matches_facade(*golden_, fleet, runs, kStreamTicks,
                                     std::get<0>(GetParam()), triggers);
  if (HasFatalFailure()) return;

  // Without the tenant matrix the same fleet skips attribution cleanly.
  math::Matrix pmcs(nodes, runs[0].dataset.features().cols());
  std::vector<std::optional<double>> readings(nodes);
  std::vector<PowerEstimate> out(nodes);
  fleet.reset_streams();
  fleet.step_tick(pmcs, readings, out);
  for (std::size_t i = 0; i < nodes; ++i) EXPECT_EQ(out[i].tenants, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsByShardLanes, FleetAttributionTest,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 8),
                       ::testing::Values<std::size_t>(2, 64)),
    [](const auto& param_info) {
      return "threads" + std::to_string(std::get<0>(param_info.param)) +
             "_lanes" + std::to_string(std::get<1>(param_info.param));
    });

// ---------------------------------------------------------------------------
// Self-calibration runs inside the lane step, so a self-calibrating golden
// batches like any other: each lane recalibrates its own attribution head,
// and tenant estimates and trigger counts match the serial facade bit for
// bit.

constexpr std::size_t kSelfCalTicks = 200;

/// Tenant streams on a platform whose per-op energy rose 1.25x after
/// training: the readings stay genuine and mostly inside DynamicTRR's
/// plausibility band, so the heads' drift EWMA crosses the threshold and
/// recalibration fires.
std::vector<measure::CollectedRun> collect_drifted_tenant_streams(
    std::size_t nodes) {
  sim::PlatformConfig hot = sim::PlatformConfig::arm();
  hot.power.inst_energy_nj *= 1.25;
  hot.power.mem_energy_nj *= 1.25;
  hot.power.dyn_scale *= 1.25;
  measure::Collector collector;
  const std::vector<sim::Workload> mix{workloads::fft(), workloads::stream()};
  std::vector<measure::CollectedRun> runs;
  for (std::size_t i = 0; i < nodes; ++i) {
    runs.push_back(
        collector.collect_tenants(hot, mix, kSelfCalTicks, kSeed + 4000 + i));
  }
  return runs;
}

class FleetSelfCalTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
 protected:
  static void SetUpTestSuite() {
    golden_ = new HighRpm(train_tenant_golden(/*self_cal=*/true));
  }
  static void TearDownTestSuite() {
    delete golden_;
    golden_ = nullptr;
  }
  void TearDown() override { runtime::set_thread_count(0); }
  static HighRpm* golden_;
};

HighRpm* FleetSelfCalTest::golden_ = nullptr;

TEST_P(FleetSelfCalTest, TenantEstimatesAndTriggersMatchFacade) {
  const std::size_t nodes = 3;
  const auto runs = collect_drifted_tenant_streams(nodes);
  FleetConfig cfg;
  cfg.shard_lanes = std::get<1>(GetParam());
  FleetStepper fleet(*golden_, nodes, cfg);
  std::vector<std::size_t> triggers;
  expect_tenant_fleet_matches_facade(*golden_, fleet, runs, kSelfCalTicks,
                                     std::get<0>(GetParam()), triggers);
  if (HasFatalFailure()) return;
  std::size_t total = 0;
  for (std::size_t i = 0; i < nodes; ++i) {
    ASSERT_TRUE(fleet.lane(i).self_cal.has_value());
    EXPECT_EQ(fleet.lane(i).self_cal->triggers(), triggers[i])
        << "node " << i;
    total += triggers[i];
  }
  EXPECT_GE(total, 1u) << "no recalibration fired: the test would not "
                          "cover a lane's own head";
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsByShardLanes, FleetSelfCalTest,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 8),
                       ::testing::Values<std::size_t>(2, 64)),
    [](const auto& param_info) {
      return "threads" + std::to_string(std::get<0>(param_info.param)) +
             "_lanes" + std::to_string(std::get<1>(param_info.param));
    });

// ---------------------------------------------------------------------------
// A window holding a substituted (held) PMC row is never fine-tuned on, on
// any streaming path: DynamicTrr holds the row itself, so the facade and
// the fleet see the same rule a bare DynamicTrr applies.

TEST(HeldWindows, NeverFineTunedOnFacadeOrFleet) {
  const HighRpm golden = train_golden(/*online_finetune=*/true);
  measure::Collector collector;
  const auto run = collector.collect(sim::PlatformConfig::arm(),
                                     workloads::hpcg(), 80, kSeed + 3000);
  const auto& features = run.dataset.features();
  const auto& labels = run.dataset.target("P_NODE");
  // One NaN PMC cell in every miss_interval-long window.
  const std::size_t mi = golden.config().miss_interval;
  const auto row_at = [&](std::size_t t, bool faulty) {
    const auto src = features.row(t);
    std::vector<double> row(src.begin(), src.end());
    if (faulty && t % mi == 3) {
      row[0] = std::numeric_limits<double>::quiet_NaN();
    }
    return row;
  };
  const auto reading_at = [&](std::size_t t) {
    return run.measured[t] ? std::optional<double>(labels[t]) : std::nullopt;
  };
  const std::size_t held = (run.num_ticks() + mi - 4) / mi;
  const std::size_t finetunes0 = golden.dynamic_trr().finetune_count();
  const std::size_t substituted0 = golden.dynamic_trr().substituted_rows();

  // Control: the clean stream does fine-tune, so the rule is what stops it.
  HighRpm clean = golden;
  clean.reset_stream();
  for (std::size_t t = 0; t < run.num_ticks(); ++t) {
    clean.on_tick(row_at(t, false), reading_at(t));
  }
  ASSERT_GT(clean.dynamic_trr().finetune_count(), finetunes0);

  DynamicTrr bare = golden.dynamic_trr();
  bare.reset_stream();
  HighRpm facade = golden;
  facade.reset_stream();
  FleetStepper fleet(golden, 2);
  math::Matrix pmcs(2, features.cols());
  std::vector<std::optional<double>> readings(2);
  std::vector<PowerEstimate> out(2);
  for (std::size_t t = 0; t < run.num_ticks(); ++t) {
    const auto row = row_at(t, true);
    bare.step(row, reading_at(t));
    facade.on_tick(row, reading_at(t));
    for (std::size_t i = 0; i < 2; ++i) {
      std::copy(row.begin(), row.end(), pmcs.row(i).begin());
      readings[i] = reading_at(t);
    }
    fleet.step_tick(pmcs, readings, out);
  }
  const auto expect_held = [&](const DynamicTrr& trr, const char* path) {
    EXPECT_EQ(trr.finetune_count(), finetunes0) << path;
    EXPECT_EQ(trr.substituted_rows(), substituted0 + held) << path;
  };
  expect_held(bare, "bare DynamicTrr");
  expect_held(facade.dynamic_trr(), "facade");
  for (std::size_t i = 0; i < 2; ++i) expect_held(fleet.lane(i).trr, "fleet");
}

TEST(FleetAttribution, StepTickValidatesTenantMatrixShape) {
  const HighRpm golden = train_tenant_golden(/*self_cal=*/false);
  FleetStepper fleet(golden, 3);
  math::Matrix pmcs(3, sim::kNumPmcEvents);
  std::vector<std::optional<double>> readings(3);
  std::vector<PowerEstimate> out(3);
  math::Matrix bad_rows(2, kTenants * sim::kNumPmcEvents);
  EXPECT_THROW(fleet.step_tick(pmcs, readings, out, &bad_rows),
               std::invalid_argument);
  math::Matrix bad_cols(3, kTenants * sim::kNumPmcEvents + 1);
  EXPECT_THROW(fleet.step_tick(pmcs, readings, out, &bad_cols),
               std::invalid_argument);
}

}  // namespace
}  // namespace highrpm::core
