// Zero-allocation contract for the daemon's steady-state consume path
// (ctest -L perf-smoke): once a consumer's staging buffers and cohort
// scratch are warm, a drain cycle — pop, held bridging, step_cohort,
// seqlock publish, histogram record — performs no heap allocations.
// Metered with the per-thread counting hook from bench/alloc_trace.hpp,
// armed on the consumer thread via DaemonConfig::CycleHooks.
//
// alloc_trace.hpp must live in exactly one TU per binary; this file is
// that TU for test_serve_perf.
#include "alloc_trace.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "highrpm/serve/daemon.hpp"
#include "serve_test_util.hpp"

namespace highrpm::serve {
namespace {

namespace at = highrpm::alloctrace;
namespace tu = testutil;

TEST(ServeAlloc, SteadyStateConsumeCycleIsAllocationFree) {
  ASSERT_TRUE(at::available())
      << "test_serve_perf must be built with HIGHRPM_ALLOC_TRACE";

  const core::HighRpm golden = tu::train_golden();
  const std::size_t nodes = 4;
  const std::uint64_t warmup_ticks = 3 * golden.config().miss_interval;
  const std::uint64_t metered_ticks = 40;

  std::atomic<bool> armed{false};
  std::atomic<std::uint64_t> cycles_metered{0};
  DaemonConfig cfg;
  cfg.consumers = 1;
  cfg.ring_capacity = 256;
  // Arm the counting hook on the consumer thread, exactly around each
  // drain cycle — nothing from the producer/test threads is metered.
  cfg.hooks.before = [&](std::size_t) {
    if (armed.load(std::memory_order_acquire)) at::arm();
  };
  cfg.hooks.after = [&](std::size_t) {
    at::disarm();
    if (armed.load(std::memory_order_acquire)) {
      cycles_metered.fetch_add(1, std::memory_order_relaxed);
    }
  };
  Daemon daemon(golden, nodes, tu::node_suites(nodes), cfg);
  std::vector<measure::NodeTickStream> streams;
  for (std::size_t i = 0; i < nodes; ++i) streams.push_back(tu::make_stream(i));

  // Warm-up: pre-fill every ring BEFORE starting the consumer, so each
  // drain cycle pops one tick from every node — the cohort reaches its
  // maximum size (all owned nodes) and every staging buffer, workspace,
  // and scratch matrix is sized for it. Also passes measured ticks through
  // the supersede path.
  for (std::uint64_t t = 0; t < warmup_ticks; ++t) {
    for (std::size_t i = 0; i < nodes; ++i) {
      ASSERT_EQ(daemon.offer(i, streams[i].next()), OfferResult::kAccepted);
    }
  }
  daemon.start();
  daemon.quiesce();

  // Metered phase: every consume cycle (drain + step + publish + record)
  // must allocate nothing.
  const std::uint64_t before = at::count();
  armed.store(true, std::memory_order_release);
  for (std::uint64_t t = 0; t < metered_ticks; ++t) {
    for (std::size_t i = 0; i < nodes; ++i) {
      ASSERT_EQ(daemon.offer(i, streams[i].next()), OfferResult::kAccepted);
    }
  }
  daemon.quiesce();
  armed.store(false, std::memory_order_release);
  const std::uint64_t allocs = at::count() - before;

  const DaemonSnapshot snap = daemon.snapshot();
  daemon.stop();

  EXPECT_GT(cycles_metered.load(), 0u) << "nothing was metered";
  EXPECT_EQ(allocs, 0u)
      << "steady-state consume path allocated (" << allocs << " allocations over "
      << cycles_metered.load() << " metered cycles)";
  EXPECT_EQ(snap.total_accepted, nodes * (warmup_ticks + metered_ticks));
}

}  // namespace
}  // namespace highrpm::serve
