// Telemetry walkthrough for the observability layer (highrpm::obs): train a
// small framework, stream a deployment run with a few injected faults, and
// dump what the instrumentation saw — functional counters (deterministic:
// pure functions of the work executed) and latency histograms (wall-clock)
// — to stdout and to bench_out/telemetry_dump_telemetry.{json,csv}.
//
// Build with -DHIGHRPM_OBS=OFF (or run with HIGHRPM_OBS=0) to see the
// zero-cost story: spans and histograms vanish, the counters that back
// functional diagnostics like substituted_rows() keep working, and the power
// estimates are byte-identical either way.
#include <cstdio>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "highrpm/core/highrpm.hpp"
#include "highrpm/obs/obs.hpp"
#include "highrpm/workloads/suites.hpp"

using namespace highrpm;

int main() {
  const auto platform = sim::PlatformConfig::arm();
  measure::Collector collector;

  // --- train a small framework --------------------------------------------
  core::HighRpmConfig cfg;
  cfg.dynamic_trr.rnn.epochs = 12;
  cfg.srr.epochs = 30;
  core::HighRpm framework(cfg);
  std::vector<measure::CollectedRun> training;
  training.push_back(collector.collect(platform, workloads::fft(), 220, 41));
  training.push_back(
      collector.collect(platform, workloads::stream(), 220, 42));
  framework.initial_learning(training);

  // --- stream a run, with a few corrupt ticks -----------------------------
  const auto run = collector.collect(platform, workloads::hpcg(), 150, 43);
  const auto& features = run.dataset.features();
  const std::vector<double> bad_row(
      features.cols(), std::numeric_limits<double>::quiet_NaN());
  for (std::size_t t = 0; t < run.num_ticks(); ++t) {
    std::optional<double> reading;
    if (run.measured[t]) reading = run.dataset.target("P_NODE")[t];
    if (t % 40 == 13) reading = 9e9;  // implausible spike: rejected
    const bool corrupt = t % 50 == 27;
    framework.on_tick(
        corrupt ? std::span<const double>(bad_row) : features.row(t),
        reading);
  }

  // --- functional diagnostics (live even with the obs layer off) ----------
  std::printf("functional diagnostics:\n");
  std::printf("  substituted_rows     %zu\n",
              framework.dynamic_trr().substituted_rows());
  std::printf("  rejected_readings    %zu\n",
              framework.dynamic_trr().rejected_readings());
  std::printf("  cold_starts          %zu\n",
              framework.dynamic_trr().cold_starts());
  std::printf("  finetunes            %zu\n",
              framework.dynamic_trr().finetune_count());

  // --- registry snapshot ---------------------------------------------------
  const obs::Snapshot snap = obs::Registry::instance().snapshot();
  std::printf("\ntelemetry counters (%zu):\n", snap.counters.size());
  for (const auto& c : snap.counters) {
    std::printf("  %-40s %llu\n", c.name.c_str(),
                static_cast<unsigned long long>(c.value));
  }
  std::printf("\ntiming histograms (%zu):\n", snap.histograms.size());
  for (const auto& h : snap.histograms) {
    std::printf("  %-40s n=%llu p50=%lluns p99=%lluns max=%lluns\n",
                h.name.c_str(), static_cast<unsigned long long>(h.count),
                static_cast<unsigned long long>(h.p50),
                static_cast<unsigned long long>(h.p99),
                static_cast<unsigned long long>(h.max));
  }

  // --- structured export ---------------------------------------------------
  const std::string path = obs::export_run_telemetry("telemetry_dump");
  if (path.empty()) {
    std::printf("\nobservability layer is compiled out "
                "(HIGHRPM_OBS=OFF); nothing to export\n");
  } else {
    std::printf("\nwrote %s (+ .csv)\n", path.c_str());
  }
  return 0;
}
