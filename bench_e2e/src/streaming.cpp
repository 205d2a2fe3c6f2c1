// Streaming workloads: fleet_saturate and tenant_adaptive (closed loop) and
// fleet_paced (open loop), all through serve::Daemon's public API.
//
// One generator thread (main) offers every node's tick for a round, then
// waits in quiesce() until the consumers published it. Two consumer
// threads drain the rings; with the generator that is three busy threads.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <thread>

#include "alloc_trace.hpp"  // the one translation unit that includes it
#include "harness.hpp"
#include "highrpm/math/float_eq.hpp"
#include "highrpm/math/metrics.hpp"
#include "highrpm/math/stats.hpp"
#include "highrpm/obs/histogram.hpp"
#include "highrpm/obs/registry.hpp"
#include "highrpm/serve/daemon.hpp"
#include "highrpm/sim/pmc.hpp"
#include "layers.hpp"

namespace e2e {

namespace {

namespace serve = highrpm::serve;
namespace obs = highrpm::obs;
namespace alloctrace = highrpm::alloctrace;

/// Drain-cycle accounting through DaemonConfig::hooks, installed in traced
/// runs only. Each consumer writes only its own slot; the main thread reads
/// the slots after Daemon::stop() joined the consumers.
class CycleMeter {
 public:
  explicit CycleMeter(Tracer& tracer) : tracer_(tracer), per_(kConsumers) {}
  CycleMeter(const CycleMeter&) = delete;
  CycleMeter& operator=(const CycleMeter&) = delete;

  serve::DaemonConfig::CycleHooks hooks() {
    return {[this](std::size_t c) { before(c); },
            [this](std::size_t c) { after(c); }};
  }

  void start() {
    t0_ = Clock::now();
    on_.store(true, std::memory_order_release);
  }
  void stop() {
    on_.store(false, std::memory_order_release);
    t1_ = Clock::now();
  }
  /// Count heap allocations made inside drain cycles from now on;
  /// `offered` is the generator's tick count so far.
  void arm_allocs(std::uint64_t offered) {
    allocs0_ = alloctrace::count();
    offered0_ = offered;
    armed_.store(true, std::memory_order_release);
  }
  bool allocs_armed() const { return armed_.load(std::memory_order_acquire); }
  void disarm_allocs(std::uint64_t offered) {
    armed_.store(false, std::memory_order_release);
    allocs1_ = alloctrace::count();
    metered_ticks_ = offered - offered0_;
  }

  std::uint64_t busy_ns() const {
    std::uint64_t s = 0;
    for (const auto& p : per_) s += p.busy_ns;
    return s;
  }
  std::uint64_t cycles() const {
    std::uint64_t s = 0;
    for (const auto& p : per_) s += p.cycles;
    return s;
  }
  double wall_ns() const { return static_cast<double>(ns_between(t0_, t1_)); }
  std::uint64_t allocs() const { return allocs1_ - allocs0_; }
  double allocs_per_tick() const {
    return metered_ticks_ == 0 ? 0.0
                               : static_cast<double>(allocs()) /
                                     static_cast<double>(metered_ticks_);
  }
  const obs::Histogram& cycle_ns() const { return cycle_ns_; }

 private:
  void before(std::size_t c) {
    PerConsumer& p = per_[c];
    p.active = on_.load(std::memory_order_acquire);
    if (!p.active) return;
    p.start = Clock::now();
    if (armed_.load(std::memory_order_acquire)) alloctrace::arm();
  }
  void after(std::size_t c) {
    alloctrace::disarm();
    PerConsumer& p = per_[c];
    if (!p.active) return;
    const auto end = Clock::now();
    const std::uint64_t ns = ns_between(p.start, end);
    p.busy_ns += ns;
    ++p.cycles;
    cycle_ns_.record(ns);
    tracer_.cycle(c, p.start, end);
  }

  struct alignas(64) PerConsumer {
    Clock::time_point start{};
    bool active = false;
    std::uint64_t busy_ns = 0;
    std::uint64_t cycles = 0;
  };
  Tracer& tracer_;
  std::vector<PerConsumer> per_;
  obs::Histogram cycle_ns_;
  std::atomic<bool> on_{false};
  std::atomic<bool> armed_{false};
  Clock::time_point t0_{}, t1_{};
  std::uint64_t allocs0_ = 0, allocs1_ = 0;
  std::uint64_t offered0_ = 0, metered_ticks_ = 0;
};

/// Allocation metering starts once every lane replayed its whole pooled
/// trace (one-time sizing, such as an adaptive lane's first LSTM tick, is
/// then behind it), or half-way through a shorter run.
std::size_t warm_rounds(const TickPool& pool, std::size_t rounds) {
  return std::min(pool.traces.front().size() + pool.traces.size(), rounds / 2);
}

/// What one drive of the daemon observed.
struct Drive {
  std::uint64_t offered = 0;
  std::uint64_t not_accepted = 0;  // shed or dropped at offer()
  std::uint64_t nonfinite = 0;     // non-finite estimates in any snapshot
  std::uint64_t late_rounds = 0;   // open loop: rounds started > 1 period late
  std::size_t rounds = 0;
  bool open_loop = false;
  double ticks_per_unit = 0.0;     // closed loop: ticks per batch_us entry
  double active_s = 0.0;           // open loop: first due to last publish
  std::vector<double> batch_us;    // closed loop: first offer to quiesce()
  /// Until the round's estimates are visible. Closed loop, per batch: last
  /// offer to quiesce() return. Open loop, per round: due time to the
  /// return of the round's snapshot().
  std::vector<double> publish_us;
  std::vector<double> query_us;    // per snapshot() call
  std::vector<double> round_offer_us;
  std::vector<double> drain_wait_us;
  std::vector<double> cpu_mape;    // math::mape of the CPU column, per sample
  std::vector<double> truth_scratch, est_scratch;
  serve::DaemonSnapshot final;
};

std::vector<std::string> node_suites(const TickPool& pool, std::size_t nodes) {
  std::vector<std::string> suites;
  suites.reserve(nodes);
  for (std::size_t i = 0; i < nodes; ++i) suites.push_back(pool.suite(i));
  return suites;
}

void offer_round(serve::Daemon& d, const TickPool& pool, std::size_t nodes,
                 std::size_t round, obs::Histogram* offer_ns, Drive& out) {
  for (std::size_t i = 0; i < nodes; ++i) {
    serve::OfferResult res;
    if (offer_ns != nullptr) {
      const auto t0 = Clock::now();
      res = d.offer(i, pool.at(i, round));
      offer_ns->record(ns_between(t0, Clock::now()));
    } else {
      res = d.offer(i, pool.at(i, round));
    }
    if (res != serve::OfferResult::kAccepted) ++out.not_accepted;
  }
  out.offered += nodes;
}

/// Scan a snapshot for non-finite estimates; when `sample` is set, also
/// score every node's CPU estimate against the truth of the tick it last
/// got. Every sample covers every node, so the mean of the per-sample MAPEs
/// is the MAPE over all sampled pairs, without keeping them.
void inspect(const serve::DaemonSnapshot& snap, const TickPool& pool,
             std::size_t last_round, bool sample, Drive& out) {
  out.truth_scratch.clear();
  out.est_scratch.clear();
  for (std::size_t i = 0; i < snap.nodes.size(); ++i) {
    const serve::NodeStatus& n = snap.nodes[i];
    if (n.ticks == 0) continue;
    if (!std::isfinite(n.node_w) || !std::isfinite(n.cpu_w) ||
        !std::isfinite(n.mem_w)) {
      ++out.nonfinite;
      continue;
    }
    if (sample) {
      out.truth_scratch.push_back(pool.at(i, last_round).truth_cpu_w);
      out.est_scratch.push_back(n.cpu_w);
    }
  }
  if (!std::isfinite(snap.total_node_w)) ++out.nonfinite;
  if (!out.truth_scratch.empty()) {
    out.cpu_mape.push_back(
        highrpm::math::mape(out.truth_scratch, out.est_scratch));
  }
}

/// The operator's query beside ingestion: one timed snapshot() call.
void poll(const serve::Daemon& d, const TickPool& pool, std::size_t last_round,
          std::uint32_t parent, Tracer& tr, Drive& out) {
  const auto q0 = Clock::now();
  const serve::DaemonSnapshot snap = d.snapshot();
  const auto q1 = Clock::now();
  out.query_us.push_back(us_between(q0, q1));
  tr.add("serve.snapshot", parent, last_round, q0, q1);
  inspect(snap, pool, last_round, /*sample=*/true, out);
}

/// Closed loop: offer kBatchRounds rounds back to back, then quiesce(); the
/// next batch starts only when the last one is published.
Drive drive_closed(serve::Daemon& d, const TickPool& pool, std::size_t nodes,
                   std::size_t rounds, Tracer& tr, obs::Histogram* offer_ns,
                   CycleMeter* meter) {
  Drive out;
  out.rounds = rounds;
  out.ticks_per_unit = static_cast<double>(nodes * kBatchRounds);
  if (meter != nullptr) meter->start();
  for (std::size_t r0 = 0; r0 < rounds; r0 += kBatchRounds) {
    const auto t0 = Clock::now();
    const std::uint32_t span = tr.open("closed.batch", Tracer::kNone, r0, t0);
    for (std::size_t r = r0; r < r0 + kBatchRounds; ++r) {
      tr.set_current(span, r);
      const auto o0 = tr.on() ? Clock::now() : t0;
      offer_round(d, pool, nodes, r, offer_ns, out);
      if (tr.on()) {
        const auto o1 = Clock::now();
        out.round_offer_us.push_back(us_between(o0, o1));
        tr.add("serve.offer_round", span, r, o0, o1);
      }
    }
    const auto t_last = Clock::now();
    d.quiesce();
    const auto t1 = Clock::now();
    out.drain_wait_us.push_back(us_between(t_last, t1));
    out.publish_us.push_back(us_between(t_last, t1));
    tr.add("serve.drain_wait", span, r0 + kBatchRounds - 1, t_last, t1);
    tr.close(span, t1);
    out.batch_us.push_back(us_between(t0, t1));
    if (meter != nullptr && !meter->allocs_armed() &&
        r0 + kBatchRounds >= warm_rounds(pool, rounds)) {
      meter->arm_allocs(out.offered);
    }
    poll(d, pool, r0 + kBatchRounds - 1, span, tr, out);
  }
  if (meter != nullptr) {
    meter->disarm_allocs(out.offered);
    meter->stop();
  }
  return out;
}

/// Open loop: round r is due at r / rate seconds whatever the system does.
/// Each round ends when the operator can see it: offer, quiesce(), then
/// snapshot(). Its publish latency runs from the due time to the
/// snapshot() return, so generator stalls and the read path both count.
Drive drive_paced(serve::Daemon& d, const TickPool& pool, std::size_t nodes,
                  std::size_t rounds, double rate, Tracer& tr,
                  obs::Histogram* offer_ns, CycleMeter* meter) {
  Drive out;
  out.rounds = rounds;
  out.open_loop = true;
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / rate));
  // Sleep to just before the due time, then spin: the generator's own
  // wake-up jitter stays out of the measured latency.
  const auto spin = std::chrono::microseconds(200);
  if (meter != nullptr) meter->start();
  const auto t_start = Clock::now() + std::chrono::milliseconds(1);
  Clock::time_point done = t_start;
  for (std::size_t r = 0; r < rounds; ++r) {
    const auto due = t_start + period * static_cast<Clock::rep>(r);
    if (Clock::now() + spin < due) std::this_thread::sleep_until(due - spin);
    while (Clock::now() < due) {
    }
    const auto o0 = Clock::now();
    if (o0 - due > period) ++out.late_rounds;
    const std::uint32_t span = tr.open("paced.round", Tracer::kNone, r, due);
    tr.set_current(span, r);
    offer_round(d, pool, nodes, r, offer_ns, out);
    const auto t_last = Clock::now();
    d.quiesce();
    const auto t_drained = Clock::now();
    const serve::DaemonSnapshot snap = d.snapshot();
    done = Clock::now();
    out.publish_us.push_back(us_between(due, done));
    out.round_offer_us.push_back(us_between(o0, t_last));
    out.drain_wait_us.push_back(us_between(t_last, t_drained));
    out.query_us.push_back(us_between(t_drained, done));
    tr.add("serve.offer_round", span, r, o0, t_last);
    tr.add("serve.drain_wait", span, r, t_last, t_drained);
    tr.add("serve.snapshot", span, r, t_drained, done);
    tr.close(span, done);
    if (meter != nullptr && r + 1 == warm_rounds(pool, rounds)) {
      meter->arm_allocs(out.offered);
    }
    inspect(snap, pool, r, (r + 1) % kSampleEvery == 0, out);
  }
  out.active_s = seconds_between(t_start, done);
  if (meter != nullptr) {
    meter->disarm_allocs(out.offered);
    meter->stop();
  }
  return out;
}

/// Correctness gate: exact daemon accounting, finite estimates, and a
/// bit-exact replay of kReplayNodes sampled nodes through a facade clone.
void verify(const core::HighRpm& golden, const TickPool& pool,
            std::size_t nodes, const Drive& drv, Report& rep) {
  rep.attempted(drv.offered);
  rep.fail(drv.not_accepted, "ticks shed or dropped at offer()");
  rep.fail(drv.nonfinite, "non-finite estimates in a snapshot");
  const serve::DaemonSnapshot& f = drv.final;
  if (f.total_offered != drv.offered || f.total_accepted != f.total_offered ||
      f.total_shed != 0 || f.total_dropped_readings != 0) {
    rep.fail(1, "daemon accounting: offered " +
                    std::to_string(f.total_offered) + ", accepted " +
                    std::to_string(f.total_accepted) + ", generator offered " +
                    std::to_string(drv.offered));
  }
  const std::size_t tenant_cols = pool.tenants * highrpm::sim::kNumPmcEvents;
  std::uint64_t mismatches = 0;
  for (std::size_t k = 0; k < kReplayNodes; ++k) {
    const std::size_t node = (k * (nodes / kReplayNodes) + 7 * k) % nodes;
    core::HighRpm h = golden;
    h.reset_stream();
    core::PowerEstimate est;
    for (std::size_t r = 0; r < drv.rounds; ++r) {
      const measure::StreamTick& t = pool.at(node, r);
      std::optional<double> reading;
      if (t.has_reading) reading = t.reading_w;
      est = pool.tenants > 0
                ? h.on_tick(t.pmcs,
                            std::span<const double>(t.tenant_pmcs.data(),
                                                    tenant_cols),
                            reading)
                : h.on_tick(t.pmcs, reading);
    }
    const serve::NodeStatus& s = f.nodes[node];
    using highrpm::math::exact_eq;
    bool ok = s.ticks == drv.rounds && exact_eq(s.node_w, est.node_w) &&
              exact_eq(s.cpu_w, est.cpu_w) && exact_eq(s.mem_w, est.mem_w) &&
              s.tenants == est.tenants;
    for (std::size_t kk = 0; ok && kk < est.tenants; ++kk) {
      const double deciwatts = static_cast<double>(
          serve::tenant_deciwatts(est.tenant_w[kk]));
      ok = exact_eq(s.tenant_w[kk], deciwatts / 10.0);
    }
    if (!ok) {
      ++mismatches;
      std::fprintf(stderr,
                   "bench_e2e: node %zu: daemon %.17g W after %llu ticks, "
                   "facade %.17g W after %zu ticks\n",
                   node, s.node_w, static_cast<unsigned long long>(s.ticks),
                   est.node_w, drv.rounds);
    }
  }
  rep.fail(mismatches, "replayed nodes differ from the daemon snapshot");
}

void report_e2e(const Drive& drv, Report& rep) {
  // A closed loop's rate is what the system sustains. The open loop's is
  // its schedule's as long as the daemon keeps up: a keep-up check that
  // moves only on a collapse, never a throughput result.
  rep.add(Kind::kEndToEnd, "ticks_per_s",
          drv.open_loop ? static_cast<double>(drv.offered) / drv.active_s
                        : sliced_rate(drv.batch_us, drv.ticks_per_unit),
          "tick/s");
  rep.add(Kind::kEndToEnd, "publish_p50_us",
          sliced_quantile(drv.publish_us, 0.50), "us");
  rep.add(Kind::kDiagnostic, "publish_p90_us",
          sliced_quantile(drv.publish_us, 0.90), "us");
  std::uint64_t p50 = 0, p99 = 0;
  for (const auto& s : drv.final.suites) {
    p50 = std::max(p50, s.err_p50_mw);
    p99 = std::max(p99, s.err_p99_mw);
  }
  rep.add(Kind::kEndToEnd, "node_err_p50_mw", static_cast<double>(p50), "mW");
  rep.add(Kind::kEndToEnd, "node_err_p99_mw", static_cast<double>(p99), "mW");
  rep.add(Kind::kEndToEnd, "cpu_mape_pct", highrpm::math::mean(drv.cpu_mape),
          "%");
}

/// Serve-layer numbers of a traced drive. `step_ns_per_lane` is the core
/// probe's step_cohort cost, subtracted from consumer busy time to leave
/// the daemon's own share.
void report_serve_layers(const Drive& drv, const CycleMeter& m,
                         const obs::Histogram& offer_ns, std::size_t nodes,
                         double step_ns_per_lane, Report& rep) {
  const double ticks = static_cast<double>(drv.offered);
  const double busy = static_cast<double>(m.busy_ns());
  rep.add(Kind::kLayer, "serve.offer_ns_p50",
          static_cast<double>(offer_ns.quantile(0.50)), "ns");
  rep.add(Kind::kLayer, "serve.offer_ns_p99",
          static_cast<double>(offer_ns.quantile(0.99)), "ns");
  rep.add(Kind::kLayer, "serve.round_offer_us_p50", median(drv.round_offer_us),
          "us");
  rep.add(Kind::kLayer, "serve.drain_wait_us_p50", median(drv.drain_wait_us),
          "us");
  rep.add(Kind::kLayer, "serve.cycle_us_p50",
          static_cast<double>(m.cycle_ns().quantile(0.50)) / 1e3, "us");
  rep.add(Kind::kLayer, "serve.cycle_us_p99",
          static_cast<double>(m.cycle_ns().quantile(0.99)) / 1e3, "us");
  rep.add(Kind::kLayer, "serve.cycles_per_round",
          static_cast<double>(m.cycles()) / static_cast<double>(drv.rounds),
          "count");
  rep.add(Kind::kLayer, "serve.consumer_busy_frac",
          busy / (static_cast<double>(kConsumers) * m.wall_ns()), "ratio");
  rep.add(Kind::kLayer, "serve.self_us_per_kilotick",
          (busy - step_ns_per_lane * ticks) / ticks, "us");
  const double query_us = median(drv.query_us);
  rep.add(Kind::kLayer, "serve.snapshot_ns_per_node",
          query_us * 1e3 / static_cast<double>(nodes), "ns");
  rep.add(Kind::kLayer, "serve.query_p50_us", query_us, "us");
  rep.add(Kind::kLayer, "serve.allocs_per_tick", m.allocs_per_tick(), "count");
  rep.fail(m.allocs(), "heap allocations inside warm drain cycles");
  rep.add(Kind::kLayer, "serve.publish_p99_us", quantile(drv.publish_us, 0.99),
          "us");
  rep.add(Kind::kLayer, "gen.late_rounds",
          static_cast<double>(drv.late_rounds), "count");
  std::uint64_t stepped = 0, cheap = 0;
  bool adaptive = false;
  for (const auto& n : drv.final.nodes) {
    stepped += n.ticks;
    cheap += n.adapt_cheap_ticks;
    adaptive = adaptive || n.adapt_mode != 0;
  }
  const double dense =
      adaptive ? 1.0 - static_cast<double>(cheap) / static_cast<double>(stepped)
               : 1.0;
  rep.add(Kind::kLayer, "adapt.dense_frac", dense, "ratio");
}

serve::DaemonConfig daemon_config(CycleMeter& meter, bool traced) {
  serve::DaemonConfig cfg;
  cfg.consumers = kConsumers;
  cfg.ring_capacity = kRingCapacity;
  if (traced) cfg.hooks = meter.hooks();
  return cfg;
}

}  // namespace

void run_streaming(const Workload& w, const Options& opt, Report& rep) {
  const Sizes sz = sizes_for(w, opt);
  Tracer tracer(opt.trace, kConsumers);

  // Inputs first; none of this is system time.
  const auto train = training_runs(w);
  const TickPool pool =
      make_tick_pool(w, opt.seed, sz.traces, sz.trace_ticks);
  std::vector<measure::CollectedRun> probe_logs;
  if (opt.trace) {
    // The offline view of four pooled traces: identical ticks, collected.
    probe_logs = make_logs(w, opt.seed + 1000, 4, sz.trace_ticks);
  }
  const std::vector<std::string> suites = node_suites(pool, sz.nodes);
  RssMeter rss;
  rss.begin();

  CycleMeter meter(tracer);
  obs::Histogram offer_ns;
  const serve::DaemonConfig dcfg = daemon_config(meter, opt.trace);

  // Set-up, repeated: train the golden instance, construct and start the
  // daemon. The last repetition's daemon is the one measured.
  std::optional<core::HighRpm> golden;
  std::unique_ptr<serve::Daemon> daemon;
  std::vector<double> setup_s, learn_s, attr_s, construct_ms;
  for (std::size_t i = 0; i < sz.setups; ++i) {
    const auto t0 = Clock::now();
    core::HighRpm g(model_config(w));
    g.initial_learning(train);
    const auto t1 = Clock::now();
    if (w.tenants > 0) g.fit_attribution(train);
    const auto t2 = Clock::now();
    auto d = std::make_unique<serve::Daemon>(g, sz.nodes, suites, dcfg);
    d->start();
    const auto t3 = Clock::now();
    setup_s.push_back(seconds_between(t0, t3));
    learn_s.push_back(seconds_between(t0, t1));
    attr_s.push_back(seconds_between(t1, t2));
    construct_ms.push_back(us_between(t2, t3) / 1e3);
    if (i + 1 < sz.setups) {
      d->stop();
    } else {
      golden.emplace(std::move(g));
      daemon = std::move(d);
    }
  }

  obs::Counter& jobs = obs::Registry::instance().counter("runtime.pool.jobs");
  const std::uint64_t jobs0 = jobs.value();
  obs::Histogram* offers = opt.trace ? &offer_ns : nullptr;
  CycleMeter* cycles = opt.trace ? &meter : nullptr;
  Drive drv = w.loop == Loop::kClosed
                  ? drive_closed(*daemon, pool, sz.nodes, sz.rounds, tracer,
                                 offers, cycles)
                  : drive_paced(*daemon, pool, sz.nodes, sz.rounds, w.rate,
                                tracer, offers, cycles);
  const std::uint64_t jobs1 = jobs.value();
  drv.final = daemon->snapshot();
  inspect(drv.final, pool, sz.rounds - 1, /*sample=*/false, drv);
  daemon->stop();
  rep.add(Kind::kEndToEnd, "peak_rss_mb", rss.peak_mb(), "MB");
  rep.add(Kind::kDiagnostic, "inputs_rss_mb", rss.inputs_mb(), "MB");

  verify(*golden, pool, sz.nodes, drv, rep);
  // Above 1% late rounds the generator did not keep its schedule, and the
  // run's publish latencies describe the host, not the daemon.
  if (drv.late_rounds * 100 > drv.rounds) {
    rep.fail(drv.late_rounds, std::to_string(drv.late_rounds) + " of " +
                                  std::to_string(drv.rounds) +
                                  " rounds started more than one period late");
  }

  rep.add(Kind::kEndToEnd, "setup_s", median(setup_s), "s");
  report_e2e(drv, rep);
  rep.add(Kind::kLayer, "core.initial_learning_s", median(learn_s), "s");
  rep.add(Kind::kLayer, "serve.construct_ms", median(construct_ms), "ms");
  if (w.tenants > 0) {
    rep.add(Kind::kDiagnostic, "core.fit_attribution_s", median(attr_s), "s");
  }
  rep.add(Kind::kLayer, "runtime.pool_jobs_per_kilotick",
          static_cast<double>(jobs1 - jobs0) * 1e3 /
              static_cast<double>(drv.offered),
          "count");
  rep.add(Kind::kLayer, "measure.next_us",
          pool.gen_s * 1e6 / static_cast<double>(pool.ticks()), "us");
  if (opt.trace) {
    const double step_ns =
        run_layer_probe(*golden, pool, sz.cohort, probe_logs, tracer, rep);
    report_serve_layers(drv, meter, offer_ns, sz.nodes, step_ns, rep);
    tracer.write(w.name, rep);
  }
}

void serve_probe(const Workload& w, const core::HighRpm& golden,
                 std::uint64_t seed,
                 std::span<const measure::CollectedRun> logs, Tracer& tracer,
                 Report& rep) {
  constexpr std::size_t kNodes = 128;
  constexpr std::size_t kRounds = 10 * kBatchRounds;
  const TickPool pool = make_tick_pool(w, seed, kTracePool, kRounds);
  rep.add(Kind::kLayer, "measure.next_us",
          pool.gen_s * 1e6 / static_cast<double>(pool.ticks()), "us");

  CycleMeter meter(tracer);
  obs::Histogram offer_ns;
  const auto t0 = Clock::now();
  serve::Daemon daemon(golden, kNodes, node_suites(pool, kNodes),
                       daemon_config(meter, /*traced=*/true));
  daemon.start();
  rep.add(Kind::kLayer, "serve.construct_ms", us_between(t0, Clock::now()) / 1e3,
          "ms");
  Drive drv =
      drive_closed(daemon, pool, kNodes, kRounds, tracer, &offer_ns, &meter);
  drv.final = daemon.snapshot();
  inspect(drv.final, pool, kRounds - 1, /*sample=*/false, drv);
  daemon.stop();
  verify(golden, pool, kNodes, drv, rep);

  const double step_ns =
      run_layer_probe(golden, pool, kNodes / kConsumers, logs, tracer, rep);
  report_serve_layers(drv, meter, offer_ns, kNodes, step_ns, rep);
}

}  // namespace e2e
