// Shared vocabulary of the end-to-end benchmark: the four workloads, the
// run sizes derived from --seconds, the generated inputs, the metric report
// and the in-memory span tracer.
//
// The benchmark drives HighRPM only through its public API, from outside:
// serve::Daemon::offer / quiesce / snapshot for the streaming workloads and
// core::HighRpm::restore_log for offline logs. Every layer number is the
// time of a call into that layer's public functions.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "highrpm/core/highrpm.hpp"
#include "highrpm/measure/collector.hpp"
#include "highrpm/measure/stream.hpp"

namespace e2e {

namespace core = highrpm::core;
namespace measure = highrpm::measure;

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

// --- fixed harness settings -------------------------------------------------

inline constexpr std::size_t kPoolThreads = 2;   // runtime::set_thread_count
inline constexpr std::size_t kConsumers = 2;     // DaemonConfig::consumers
inline constexpr std::size_t kRingCapacity = 64;
inline constexpr std::size_t kBatchRounds = 32;  // closed loop: rounds per quiesce
inline constexpr std::size_t kSampleEvery = 10;  // paced loop: rounds per accuracy sample
inline constexpr std::size_t kTracePool = 64;    // distinct pooled traces
inline constexpr std::size_t kReplayNodes = 8;   // correctness-gate sample
inline constexpr std::size_t kTrainTicks = 400;
inline constexpr std::uint64_t kTrainSeed = 2023;
inline constexpr std::uint64_t kDefaultSeed = 2023;

enum class Loop { kClosed, kPaced, kBatch };

struct Workload {
  std::string_view name;
  Loop loop;
  std::size_t nodes;    // daemon lanes (kBatch: number of hour-long logs)
  std::size_t tenants;  // co-located tenants per node; 0 = one workload
  bool adaptive;
  /// Work per measured second. kClosed: reference rounds/s on the
  /// reference host; kPaced: the due rate of the open loop; kBatch:
  /// reference passes over all logs per second.
  double rate;
  std::size_t trace_ticks;  // ticks per pooled trace (kBatch: per log)
  std::string_view why;
};

/// The four workloads, in the order `bench.py run` executes them.
const std::vector<Workload>& all_workloads();
const Workload* find_workload(std::string_view name);

struct Options {
  const Workload* workload = nullptr;  // nullptr with --smoke = all four
  std::uint64_t seed = kDefaultSeed;
  double seconds = 0.0;  // --seconds, required unless --smoke
  bool trace = false;
  bool smoke = false;
};

/// Run sizes of one workload, derived from --seconds (or --smoke) so that
/// the same arguments always do the same work: the deterministic metrics
/// then repeat exactly at a given seed.
struct Sizes {
  std::size_t nodes = 0;        // daemon lanes / logs
  std::size_t rounds = 0;       // streaming rounds / restore passes
  std::size_t traces = 0;       // pooled traces (streaming)
  std::size_t trace_ticks = 0;  // ticks per pooled trace / per log
  std::size_t setups = 0;       // setup repetitions (setup_s is their median)
  std::size_t cohort = 0;       // lanes one consumer owns (streaming)
};
Sizes sizes_for(const Workload& w, const Options& opt);

// --- inputs (generated from the seed before anything is timed) --------------

core::HighRpmConfig model_config(const Workload& w);

/// Training runs, seeded kTrainSeed + i whatever --seed is: the bench_serve
/// recipe (arm platform, fft / stream / hpcg x kTrainTicks) or, with
/// tenants, K-tenant mixes. The trained model is part of the system under
/// test; --seed varies the traffic it monitors. (A model retrained per seed
/// moves the accuracy metrics by a third from seed to seed.)
std::vector<measure::CollectedRun> training_runs(const Workload& w);

/// A pool of distinct NodeTickStream traces (trace d seeded
/// seed + 1000 + d). Node i replays trace i mod traces, offset by
/// i div traces ticks, looping; trace length is a multiple of the IM miss
/// interval so the loop keeps the reading cadence.
struct TickPool {
  std::vector<std::vector<measure::StreamTick>> traces;
  std::vector<std::string> suites;  // suite of each trace's (first) workload
  std::size_t tenants = 0;
  double gen_s = 0.0;  // wall time spent generating the pool

  const measure::StreamTick& at(std::size_t node, std::size_t round) const {
    const auto& tr = traces[node % traces.size()];
    return tr[(round + node / traces.size()) % tr.size()];
  }
  const std::string& suite(std::size_t node) const {
    return suites[node % suites.size()];
  }
  std::size_t ticks() const {
    return traces.size() * (traces.empty() ? 0 : traces.front().size());
  }
};
TickPool make_tick_pool(const Workload& w, std::uint64_t seed,
                        std::size_t traces, std::size_t ticks);

/// Collected logs, log i seeded seed_base + i, the same workload rotation
/// as the pooled traces. Collected on the runtime pool.
std::vector<measure::CollectedRun> make_logs(const Workload& w,
                                             std::uint64_t seed_base,
                                             std::size_t logs,
                                             std::size_t ticks);

// --- results ---------------------------------------------------------------

enum class Kind {
  kEndToEnd,    // in the JSON result of an untraced run
  kLayer,       // in the JSON result of a traced run
  kDiagnostic,  // printed only
};

class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}

  void add(Kind kind, std::string name, double value, std::string unit);
  void attempted(std::uint64_t n) { attempted_ += n; }
  /// Count `n` failed ticks / checks; prints the reason on stderr.
  void fail(std::uint64_t n, const std::string& why);
  bool correct() const { return failed_ == 0; }

  /// Print every metric as `workload metric value unit`, then, as the last
  /// line, the JSON result with the end-to-end (or, traced, the per-layer)
  /// metrics. A required metric that is missing is itself a failure.
  void print(bool trace);

 private:
  struct Metric {
    Kind kind;
    std::string name;
    double value;
    std::string unit;
  };
  std::string workload_;
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Spans kept in memory and written once at exit. The main thread opens
/// and closes spans; consumer threads record their drain cycles into
/// per-consumer buffers reserved up front (capped, so a long open-loop run
/// cannot allocate on a hot path), parented to the round that was current
/// when the cycle began. Empty-scan cycles are only counted.
class Tracer {
 public:
  static constexpr std::uint32_t kNone = UINT32_MAX;

  Tracer(bool on, std::size_t consumers);
  bool on() const { return on_; }

  std::uint32_t open(std::string_view name, std::uint32_t parent,
                     std::uint64_t round, Clock::time_point start);
  void close(std::uint32_t id, Clock::time_point end);
  /// A span whose start and end are already known.
  std::uint32_t add(std::string_view name, std::uint32_t parent,
                    std::uint64_t round, Clock::time_point start,
                    Clock::time_point end);

  /// The span new consumer cycles are parented to (main thread).
  void set_current(std::uint32_t span, std::uint64_t round);
  /// Consumer thread c finished a drain cycle.
  void cycle(std::size_t c, Clock::time_point start, Clock::time_point end);

  /// Write all spans to bench_out/e2e_trace_<workload>.json; a file that
  /// cannot be written is a failure of the run.
  void write(std::string_view workload, Report& rep) const;

 private:
  struct Span {
    std::uint32_t name = 0;
    std::uint32_t parent = kNone;
    std::uint64_t round = 0;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
  };
  struct alignas(64) ConsumerSpans {
    std::vector<Span> spans;
    std::uint64_t fastest_ns = UINT64_MAX;
    std::uint64_t empty = 0;    // empty-scan cycles, counted only
    std::uint64_t dropped = 0;  // cycles past the span cap
  };
  std::uint32_t intern(std::string_view name);
  std::uint64_t since_origin(Clock::time_point t) const;

  bool on_;
  Clock::time_point origin_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<ConsumerSpans> consumer_spans_;
  std::uint32_t cycle_name_ = 0;
  std::atomic<std::uint64_t> current_{0};  // (round << 32) | span id
};

/// Resident memory of the system under test. begin() runs once the inputs
/// exist and before set-up: it hands freed heap back to the OS, records the
/// resident footprint (binary plus inputs) and restarts the kernel's
/// peak-RSS counter. peak_mb() is the peak resident set since begin(), less
/// that footprint, so inputs neither hide nor dilute the system's memory.
class RssMeter {
 public:
  void begin();
  double inputs_mb() const { return inputs_mb_; }
  double peak_mb() const;

 private:
  double inputs_mb_ = 0.0;
};

/// Exact quantile (linear interpolation between order statistics) of an
/// unsorted sample; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// Steady-state statistics of a run: the per-unit series (one entry per
/// closed-loop batch, open-loop round or restored log, in run order) is cut
/// into kSlices equal slices, the statistic is taken per slice, and the
/// median over slices is reported. A host stall that hits one slice moves
/// that slice's number, not the result.
inline constexpr std::size_t kSlices = 10;
/// Median over slices of the slice's q-quantile.
double sliced_quantile(const std::vector<double>& unit_us, double q);
/// Median over slices of the slice's rate: units x ticks_per_unit per
/// second of summed unit time.
double sliced_rate(const std::vector<double>& unit_us, double ticks_per_unit);

// --- workloads -------------------------------------------------------------

void run_streaming(const Workload& w, const Options& opt, Report& rep);
void run_log_restore(const Workload& w, const Options& opt, Report& rep);

}  // namespace e2e
