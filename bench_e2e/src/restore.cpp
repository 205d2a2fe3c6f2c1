// log_restore: the paper's offline mode. core::HighRpm::restore_log turns
// each hour-long log (sparse IM readings every 10 ticks) into 1 Sa/s node,
// CPU and memory power: StaticTRR spline + decision-tree residual for the
// node, the scalar SRR for the split. No streaming code runs in the timed
// phase.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>

#include "harness.hpp"
#include "highrpm/math/metrics.hpp"
#include "highrpm/math/stats.hpp"
#include "highrpm/obs/histogram.hpp"
#include "highrpm/obs/registry.hpp"
#include "layers.hpp"

namespace e2e {

namespace {

namespace obs = highrpm::obs;

/// FNV-1a over the bit patterns of every restored value.
std::uint64_t digest(const core::LogRestoration& r) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const auto* series : {&r.node_w, &r.cpu_w, &r.mem_w}) {
    for (const double v : *series) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof(bits));
      for (int b = 0; b < 8; ++b) {
        h ^= (bits >> (8 * b)) & 0xFF;
        h *= 1099511628211ULL;
      }
    }
  }
  return h;
}

std::uint64_t nonfinite(const core::LogRestoration& r) {
  std::uint64_t n = 0;
  for (const auto* series : {&r.node_w, &r.cpu_w, &r.mem_w}) {
    for (const double v : *series) {
      if (!std::isfinite(v)) ++n;
    }
  }
  return n;
}

/// Node error on unmeasured ticks (mW, one histogram per suite, the
/// daemon's quantile rule) and the CPU split against the simulator truth,
/// one MAPE per log: the logs are equally long, so their mean is the MAPE
/// over every tick without keeping the ticks.
struct Accuracy {
  std::vector<std::pair<std::string, std::unique_ptr<obs::Histogram>>> suites;
  std::vector<double> cpu_mape;

  void add(const measure::CollectedRun& run, const core::LogRestoration& r) {
    obs::Histogram* hist = nullptr;
    for (auto& [name, h] : suites) {
      if (name == run.suite) hist = h.get();
    }
    if (hist == nullptr) {
      suites.emplace_back(run.suite, std::make_unique<obs::Histogram>());
      hist = suites.back().second.get();
    }
    const auto truth_node = run.truth.node_power();
    const auto truth_cpu = run.truth.cpu_power();
    for (std::size_t t = 0; t < r.node_w.size(); ++t) {
      if (!run.measured[t]) {
        const double err = std::fabs(r.node_w[t] - truth_node[t]);
        hist->record(static_cast<std::uint64_t>(std::llround(err * 1000.0)));
      }
    }
    cpu_mape.push_back(highrpm::math::mape(truth_cpu, r.cpu_w));
  }
};

}  // namespace

void run_log_restore(const Workload& w, const Options& opt, Report& rep) {
  const Sizes sz = sizes_for(w, opt);
  Tracer tracer(opt.trace, kConsumers);

  const auto train = training_runs(w);
  const auto logs = make_logs(w, opt.seed + 5000, sz.nodes, sz.trace_ticks);
  RssMeter rss;
  rss.begin();

  std::optional<core::HighRpm> golden;
  std::vector<double> setup_s;
  for (std::size_t i = 0; i < sz.setups; ++i) {
    const auto t0 = Clock::now();
    core::HighRpm g(model_config(w));
    g.initial_learning(train);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    if (i + 1 == sz.setups) golden.emplace(std::move(g));
  }

  obs::Counter& jobs = obs::Registry::instance().counter("runtime.pool.jobs");
  const std::uint64_t jobs0 = jobs.value();
  std::vector<double> call_us;
  std::vector<std::uint64_t> digests(logs.size());
  Accuracy acc;
  std::uint64_t ticks = 0, bad_values = 0, digest_mismatches = 0;
  for (std::size_t pass = 0; pass < sz.rounds; ++pass) {
    const std::uint32_t span =
        tracer.open("restore.pass", Tracer::kNone, pass, Clock::now());
    for (std::size_t i = 0; i < logs.size(); ++i) {
      const auto a = Clock::now();
      const core::LogRestoration r = golden->restore_log(logs[i]);
      const auto b = Clock::now();
      call_us.push_back(us_between(a, b));
      ticks += logs[i].num_ticks();
      tracer.add("core.restore_log", span, i, a, b);

      // Checks, outside the timed call.
      bad_values += nonfinite(r);
      if (r.node_w.size() != logs[i].num_ticks()) ++bad_values;
      const std::uint64_t d = digest(r);
      if (pass == 0) {
        digests[i] = d;
        acc.add(logs[i], r);
      } else if (d != digests[i]) {
        ++digest_mismatches;
      }
    }
    tracer.close(span, Clock::now());
  }
  const std::uint64_t jobs1 = jobs.value();
  rep.add(Kind::kEndToEnd, "peak_rss_mb", rss.peak_mb(), "MB");
  rep.add(Kind::kDiagnostic, "inputs_rss_mb", rss.inputs_mb(), "MB");

  rep.attempted(ticks);
  rep.fail(bad_values, "non-finite or missing restored values");
  rep.fail(digest_mismatches, "a later pass restored a log differently");

  std::uint64_t p50 = 0, p99 = 0;
  for (const auto& [name, h] : acc.suites) {
    const obs::HistogramStats s = h->stats();
    p50 = std::max(p50, s.p50);
    p99 = std::max(p99, s.p99);
  }
  rep.add(Kind::kEndToEnd, "setup_s", median(setup_s), "s");
  rep.add(Kind::kEndToEnd, "ticks_per_s",
          sliced_rate(call_us, static_cast<double>(sz.trace_ticks)), "tick/s");
  // The wait for one restored hour. With equally long logs it mirrors
  // ticks_per_s: offline restore has no separate publish step.
  rep.add(Kind::kEndToEnd, "publish_p50_us", sliced_quantile(call_us, 0.50),
          "us");
  rep.add(Kind::kDiagnostic, "publish_p90_us", sliced_quantile(call_us, 0.90),
          "us");
  rep.add(Kind::kEndToEnd, "node_err_p50_mw", static_cast<double>(p50), "mW");
  rep.add(Kind::kEndToEnd, "node_err_p99_mw", static_cast<double>(p99), "mW");
  rep.add(Kind::kEndToEnd, "cpu_mape_pct", highrpm::math::mean(acc.cpu_mape),
          "%");
  rep.add(Kind::kLayer, "core.initial_learning_s", median(setup_s), "s");
  rep.add(Kind::kLayer, "runtime.pool_jobs_per_kilotick",
          static_cast<double>(jobs1 - jobs0) * 1e3 / static_cast<double>(ticks),
          "count");

  if (opt.trace) {
    const std::size_t probe_logs = std::min<std::size_t>(4, logs.size());
    serve_probe(w, *golden, opt.seed,
                std::span<const measure::CollectedRun>(logs.data(), probe_logs),
                tracer, rep);
    tracer.write(w.name, rep);
  }
}

}  // namespace e2e
