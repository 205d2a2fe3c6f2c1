// Workload table, run sizes and input generation. Everything here runs
// before the timed phase; its wall time is reported as generator health,
// never as system time.
#include <algorithm>
#include <array>
#include <cmath>

#include "harness.hpp"
#include "highrpm/runtime/parallel_for.hpp"
#include "highrpm/sim/platform.hpp"
#include "highrpm/workloads/suites.hpp"

namespace e2e {

namespace {

using SimWorkload = highrpm::sim::Workload;
namespace workloads = highrpm::workloads;

/// Single-workload rotation shared with bench_serve and the serve tests.
SimWorkload single_workload(std::size_t d) {
  switch (d % 4) {
    case 0: return workloads::fft();
    case 1: return workloads::stream();
    case 2: return workloads::hpcg();
    default: return workloads::graph500_bfs();
  }
}

/// K co-located workloads cycling through a seven-workload pool, rotated
/// per trace so the pool holds seven distinct mixes.
std::vector<SimWorkload> tenant_mix(std::size_t k, std::size_t rotate) {
  using Factory = SimWorkload (*)();
  static constexpr std::array<Factory, 7> kPool = {
      workloads::fft,          workloads::stream,  workloads::hpcg,
      workloads::graph500_sssp, workloads::graph500_bfs,
      workloads::hpl_ai,       workloads::smg2000,
  };
  std::vector<SimWorkload> mix;
  for (std::size_t i = 0; i < k; ++i) {
    mix.push_back(kPool[(i + rotate) % kPool.size()]());
  }
  return mix;
}

std::size_t round_up(std::size_t v, std::size_t multiple) {
  return (v + multiple - 1) / multiple * multiple;
}

std::size_t scaled(double seconds, double rate) {
  return static_cast<std::size_t>(std::llround(std::max(1.0, seconds * rate)));
}

}  // namespace

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> kAll = {
      {"fleet_saturate", Loop::kClosed, 1024, 0, false, 340.0, 1000,
       "closed loop, 1024 LSTM nodes: consumers never idle and own 512-lane "
       "cohorts, so core/ml step_cohort sets the rate"},
      {"fleet_paced", Loop::kPaced, 256, 0, false, 400.0, 1000,
       "open loop at ~1/3 load: consumers sleep between rounds, so hand-off, "
       "wake-up and small cohorts set the publish latency"},
      {"tenant_adaptive", Loop::kClosed, 256, 4, true, 1500.0, 1000,
       "closed loop, K=4 tenants, adaptive: mostly decision-tree ticks and "
       "the attribution MLP on every tick"},
      {"log_restore", Loop::kBatch, 128, 0, false, 1.6, 3600,
       "offline restore_log of hour-long logs: StaticTRR spline + DT "
       "residual + scalar SRR, no streaming code"},
  };
  return kAll;
}

const Workload* find_workload(std::string_view name) {
  for (const auto& w : all_workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Sizes sizes_for(const Workload& w, const Options& opt) {
  Sizes s;
  s.setups = opt.smoke ? 1 : 3;
  if (w.loop == Loop::kBatch) {
    s.nodes = opt.smoke ? 4 : w.nodes;
    s.trace_ticks = opt.smoke ? 600 : w.trace_ticks;
    s.rounds = opt.smoke ? 2 : scaled(opt.seconds, w.rate);
    return s;
  }
  s.nodes = opt.smoke ? 16 : w.nodes;
  s.traces = opt.smoke ? 8 : kTracePool;
  s.trace_ticks = opt.smoke ? 100 : w.trace_ticks;
  if (w.loop == Loop::kClosed) {
    s.rounds = opt.smoke ? 2 * kBatchRounds
                         : round_up(scaled(opt.seconds, w.rate), kBatchRounds);
  } else {
    s.rounds = opt.smoke ? 4 * kSampleEvery : scaled(opt.seconds, w.rate);
  }
  s.cohort = (s.nodes + kConsumers - 1) / kConsumers;
  return s;
}

core::HighRpmConfig model_config(const Workload& w) {
  core::HighRpmConfig cfg;
  cfg.dynamic_trr.rnn.epochs = 25;
  // Online fine-tuning off: every daemon lane shares one set of RNN
  // weights, the fleet's one-GEMM-per-layer path (the bench_serve recipe).
  cfg.dynamic_trr.online_finetune = false;
  cfg.srr.epochs = 60;
  if (w.tenants > 0) {
    cfg.tenants = w.tenants;
    cfg.tenant_srr.epochs = 60;
  }
  cfg.adaptive = w.adaptive;
  return cfg;
}

std::vector<measure::CollectedRun> training_runs(const Workload& w) {
  const std::uint64_t seed = kTrainSeed;
  const measure::Collector collector;
  const auto platform = highrpm::sim::PlatformConfig::arm();
  std::vector<measure::CollectedRun> runs;
  for (std::size_t i = 0; i < 3; ++i) {
    if (w.tenants > 0) {
      // Tenant mixes draw more node power than any single workload; the
      // node models train on mixes too, so the plausibility band covers
      // the streams they will see.
      const auto mix = tenant_mix(w.tenants, 2 * i);
      runs.push_back(
          collector.collect_tenants(platform, mix, kTrainTicks, seed + i));
    } else {
      static constexpr std::array<const char*, 3> kTrain = {"fft", "stream",
                                                            "hpcg"};
      runs.push_back(collector.collect(platform, workloads::by_name(kTrain[i]),
                                       kTrainTicks, seed + i));
    }
  }
  return runs;
}

TickPool make_tick_pool(const Workload& w, std::uint64_t seed,
                        std::size_t traces, std::size_t ticks) {
  const auto platform = highrpm::sim::PlatformConfig::arm();
  TickPool pool;
  pool.tenants = w.tenants;
  pool.traces.resize(traces);
  pool.suites.resize(traces);
  // Serial on purpose: gen_s / ticks is the per-tick generator cost.
  const auto t0 = Clock::now();
  for (std::size_t d = 0; d < traces; ++d) {
    const std::uint64_t s = seed + 1000 + d;
    auto fill = [&](measure::NodeTickStream stream) {
      pool.traces[d].reserve(ticks);
      for (std::size_t t = 0; t < ticks; ++t) {
        pool.traces[d].push_back(stream.next());
      }
    };
    if (w.tenants > 0) {
      const auto mix = tenant_mix(w.tenants, d);
      pool.suites[d] = mix.front().suite;
      fill(measure::NodeTickStream(platform, mix, s));
    } else {
      const auto wl = single_workload(d);
      pool.suites[d] = wl.suite;
      fill(measure::NodeTickStream(platform, wl, s));
    }
  }
  pool.gen_s = seconds_between(t0, Clock::now());
  return pool;
}

std::vector<measure::CollectedRun> make_logs(const Workload& w,
                                             std::uint64_t seed_base,
                                             std::size_t logs,
                                             std::size_t ticks) {
  const measure::Collector collector;
  const auto platform = highrpm::sim::PlatformConfig::arm();
  return highrpm::runtime::parallel_map(logs, [&](std::size_t i) {
    if (w.tenants > 0) {
      return collector.collect_tenants(platform, tenant_mix(w.tenants, i),
                                       ticks, seed_base + i);
    }
    return collector.collect(platform, single_workload(i), ticks,
                             seed_base + i);
  });
}

}  // namespace e2e
