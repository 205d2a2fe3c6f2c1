// HighRpm::restore_log's determinism contract: the offline restoration runs
// its residual-tree walk and its SRR split on the runtime pool, and its
// bytes equal a serial reference at every thread count. The reference is the
// row-at-a-time loop restore_log replaced: StaticTRR node power, then the
// RowHold pass and Srr::predict_one on each row. Exact equality, no
// tolerances.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "highrpm/core/highrpm.hpp"
#include "highrpm/obs/counter.hpp"
#include "highrpm/obs/registry.hpp"
#include "highrpm/runtime/thread_pool.hpp"
#include "highrpm/sim/platform.hpp"
#include "highrpm/workloads/suites.hpp"

namespace highrpm::core {
namespace {

constexpr std::uint64_t kSeed = 2023;
// Not a multiple of restore_log's 64-row block, and its slices at 2 and 4
// threads (450/451 and 225/226 rows) end mid-block too.
constexpr std::size_t kLogTicks = 901;
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

HighRpm train_golden() {
  measure::Collector collector;
  std::vector<measure::CollectedRun> runs;
  runs.push_back(collector.collect(sim::PlatformConfig::arm(),
                                   workloads::fft(), 160, kSeed));
  runs.push_back(collector.collect(sim::PlatformConfig::arm(),
                                   workloads::stream(), 160, kSeed + 1));
  HighRpmConfig cfg;
  cfg.dynamic_trr.rnn.epochs = 4;
  cfg.srr.epochs = 20;
  HighRpm golden(cfg);
  golden.initial_learning(runs);
  return golden;
}

struct Log {
  std::string name;
  measure::CollectedRun run;
};

/// A clean log, and one with every kind of degraded row restore_log holds:
/// two leading all-NaN rows (held as zeros), an all-NaN row mid-log (held
/// as the row before it), and a block of rows with one NaN counter.
std::vector<Log> make_logs() {
  measure::Collector collector;
  std::vector<Log> logs;
  logs.push_back({"clean", collector.collect(sim::PlatformConfig::arm(),
                                             workloads::hpcg(), kLogTicks,
                                             kSeed + 7)});
  Log degraded{"degraded", collector.collect(sim::PlatformConfig::arm(),
                                             workloads::fft(), kLogTicks,
                                             kSeed + 8)};
  math::Matrix& f = degraded.run.dataset.features();
  for (const std::size_t r : {std::size_t{0}, std::size_t{1},
                              std::size_t{500}}) {
    for (double& v : f.row(r)) v = kNan;
  }
  for (std::size_t r = 600; r < 620; ++r) f(r, 3) = kNan;
  logs.push_back(std::move(degraded));
  return logs;
}

/// The serial row-at-a-time restoration, run at 1 thread.
LogRestoration serial_reference(const HighRpm& golden,
                                const measure::CollectedRun& log) {
  runtime::set_thread_count(1);
  StaticTrrConfig sc = golden.config().static_trr;
  sc.miss_interval = golden.config().miss_interval;
  LogRestoration ref;
  ref.node_w = restore_node_power(log, sc);
  const auto& features = log.dataset.features();
  RowHold hold;
  for (std::size_t r = 0; r < features.rows(); ++r) {
    const auto est =
        golden.srr().predict_one(hold.pass(features.row(r)), ref.node_w[r]);
    ref.cpu_w.push_back(est.cpu_w);
    ref.mem_w.push_back(est.mem_w);
  }
  return ref;
}

void expect_same_bytes(const std::vector<double>& want,
                       const std::vector<double>& got, const char* series,
                       const std::string& context) {
  ASSERT_EQ(want.size(), got.size()) << series << " " << context;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(std::memcmp(&want[i], &got[i], sizeof(double)), 0)
        << series << " differs at tick " << i << " (" << want[i] << " vs "
        << got[i] << "), " << context;
  }
}

class RestoreLogThreadsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    runtime::set_thread_count(1);
    golden_ = new HighRpm(train_golden());
    logs_ = new std::vector<Log>(make_logs());
  }
  static void TearDownTestSuite() {
    delete golden_;
    delete logs_;
    golden_ = nullptr;
    logs_ = nullptr;
  }
  void TearDown() override { runtime::set_thread_count(0); }

  static HighRpm* golden_;
  static std::vector<Log>* logs_;
};

HighRpm* RestoreLogThreadsTest::golden_ = nullptr;
std::vector<Log>* RestoreLogThreadsTest::logs_ = nullptr;

TEST_F(RestoreLogThreadsTest, SameBytesAsSerialReferenceAtEveryThreadCount) {
  for (const Log& log : *logs_) {
    const LogRestoration ref = serial_reference(*golden_, log.run);
    for (const std::size_t threads : {1u, 2u, 4u}) {
      runtime::set_thread_count(threads);
      const LogRestoration got = golden_->restore_log(log.run);
      const std::string context =
          log.name + " log, " + std::to_string(threads) + " threads";
      expect_same_bytes(ref.node_w, got.node_w, "node_w", context);
      expect_same_bytes(ref.cpu_w, got.cpu_w, "cpu_w", context);
      expect_same_bytes(ref.mem_w, got.mem_w, "mem_w", context);
    }
  }
}

TEST_F(RestoreLogThreadsTest, RunsOnThePoolAtTwoThreads) {
  runtime::set_thread_count(2);
  const obs::Counter& jobs =
      obs::Registry::instance().counter("runtime.pool.jobs");
  const std::uint64_t before = jobs.value();
  (void)golden_->restore_log(logs_->front().run);
  EXPECT_GT(jobs.value(), before)
      << "restore_log left the runtime pool idle at 2 threads";
}

}  // namespace
}  // namespace highrpm::core
