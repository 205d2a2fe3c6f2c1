// Metric report, span tracer, memory meter and small statistics helpers.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <utility>

#include "harness.hpp"

namespace e2e {

namespace {

struct Required {
  const char* name;
  const char* unit;
};

// The JSON result carries exactly these metrics; BENCHMARK.json lists the
// same names (bench.py refuses a result whose names differ from it).
constexpr Required kEndToEnd[] = {
    {"setup_s", "s"},          {"ticks_per_s", "tick/s"},
    {"publish_p50_us", "us"},  {"node_err_p50_mw", "mW"},
    {"node_err_p99_mw", "mW"}, {"cpu_mape_pct", "%"},
    {"peak_rss_mb", "MB"},
};

constexpr Required kLayers[] = {
    {"serve.offer_ns_p50", "ns"},
    {"serve.offer_ns_p99", "ns"},
    {"serve.round_offer_us_p50", "us"},
    {"serve.drain_wait_us_p50", "us"},
    {"serve.cycle_us_p50", "us"},
    {"serve.cycle_us_p99", "us"},
    {"serve.cycles_per_round", "count"},
    {"serve.consumer_busy_frac", "ratio"},
    {"serve.self_us_per_kilotick", "us"},
    {"serve.snapshot_ns_per_node", "ns"},
    {"serve.query_p50_us", "us"},
    {"serve.allocs_per_tick", "count"},
    {"serve.construct_ms", "ms"},
    {"serve.publish_p99_us", "us"},
    {"core.step_cohort_ns_per_lane", "ns"},
    {"core.window_pack_ns_per_lane", "ns"},
    {"core.srr_batch_ns_per_row", "ns"},
    {"core.srr_predict_one_ns", "ns"},
    {"core.static_restore_us_per_ktick", "us"},
    {"core.initial_learning_s", "s"},
    {"ml.rnn_batch_ns_per_lane", "ns"},
    {"ml.mlp_batch_ns_per_row", "ns"},
    {"ml.rnn_macs_per_lane_tick", "count"},
    {"ml.rnn_activations_per_lane_tick", "count"},
    {"ml.mlp_macs_per_row", "count"},
    {"ml.mlp_activations_per_row", "count"},
    {"adapt.dense_frac", "ratio"},
    {"adapt.observe_ns", "ns"},
    {"runtime.pool_jobs_per_kilotick", "count"},
    {"measure.next_us", "us"},
    {"gen.late_rounds", "count"},
};

}  // namespace

void Report::add(Kind kind, std::string name, double value, std::string unit) {
  metrics_.push_back({kind, std::move(name), value, std::move(unit)});
}

void Report::fail(std::uint64_t n, const std::string& why) {
  if (n == 0) return;
  failed_ += n;
  std::fprintf(stderr, "bench_e2e: %s: FAILED %llu: %s\n", workload_.c_str(),
               static_cast<unsigned long long>(n), why.c_str());
}

void Report::print(bool trace) {
  const Kind gated = trace ? Kind::kLayer : Kind::kEndToEnd;
  std::string json;
  auto required = [&](const Required& r) {
    const auto it = std::find_if(
        metrics_.begin(), metrics_.end(), [&](const Metric& m) {
          return m.kind == gated && m.name == r.name;
        });
    if (it == metrics_.end() || it->unit != r.unit ||
        !std::isfinite(it->value)) {
      fail(1, std::string("metric ") + r.name + " missing or not finite");
      return;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json.empty() ? "" : ", ", r.name, it->value, r.unit);
    json += buf;
  };
  if (trace) {
    for (const auto& r : kLayers) required(r);
  } else {
    for (const auto& r : kEndToEnd) required(r);
  }
  for (const auto& m : metrics_) {
    std::printf("%s %s %.6g %s\n", workload_.c_str(), m.name.c_str(), m.value,
                m.unit.c_str());
  }
  const double frac = attempted_ == 0 ? 0.0
                                      : static_cast<double>(failed_) /
                                            static_cast<double>(attempted_);
  std::printf("%s failed_frac %.6g ratio\n", workload_.c_str(), frac);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct() ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_), json.c_str());
  std::fflush(stdout);
}

// --- Tracer ----------------------------------------------------------------

namespace {
// Cycle spans kept per consumer; beyond this they are only counted.
constexpr std::size_t kCycleSpanCap = std::size_t{1} << 17;
// A cycle within this of the consumer's fastest cycle found every ring
// empty (stepping even one tick costs microseconds more). Such cycles, most
// of an open-loop run, are counted rather than kept as spans.
constexpr std::uint64_t kEmptyScanSlackNs = 2000;
}  // namespace

Tracer::Tracer(bool on, std::size_t consumers)
    : on_(on), origin_(Clock::now()), consumer_spans_(consumers) {
  if (!on_) return;
  spans_.reserve(1 << 16);
  for (auto& cs : consumer_spans_) cs.spans.reserve(kCycleSpanCap);
  cycle_name_ = intern("serve.consumer_cycle");
  current_.store(kNone, std::memory_order_release);
}

std::uint32_t Tracer::intern(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::uint64_t Tracer::since_origin(Clock::time_point t) const {
  return t < origin_ ? 0 : ns_between(origin_, t);
}

std::uint32_t Tracer::open(std::string_view name, std::uint32_t parent,
                           std::uint64_t round, Clock::time_point start) {
  if (!on_) return kNone;
  spans_.push_back({intern(name), parent, round, since_origin(start), 0});
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

void Tracer::close(std::uint32_t id, Clock::time_point end) {
  if (!on_ || id == kNone) return;
  spans_[id].end_ns = since_origin(end);
}

std::uint32_t Tracer::add(std::string_view name, std::uint32_t parent,
                          std::uint64_t round, Clock::time_point start,
                          Clock::time_point end) {
  const std::uint32_t id = open(name, parent, round, start);
  close(id, end);
  return id;
}

void Tracer::set_current(std::uint32_t span, std::uint64_t round) {
  if (!on_) return;
  current_.store((round << 32) | span, std::memory_order_release);
}

void Tracer::cycle(std::size_t c, Clock::time_point start,
                   Clock::time_point end) {
  if (!on_) return;
  ConsumerSpans& cs = consumer_spans_[c];
  const std::uint64_t ns = ns_between(start, end);
  cs.fastest_ns = std::min(cs.fastest_ns, ns);
  if (ns <= cs.fastest_ns + kEmptyScanSlackNs) {
    ++cs.empty;
    return;
  }
  if (cs.spans.size() == cs.spans.capacity()) {
    ++cs.dropped;
    return;
  }
  const std::uint64_t cur = current_.load(std::memory_order_acquire);
  cs.spans.push_back({cycle_name_, static_cast<std::uint32_t>(cur),
                      cur >> 32, since_origin(start), since_origin(end)});
}

void Tracer::write(std::string_view workload, Report& rep) const {
  if (!on_) return;
  const std::string path =
      "bench_out/e2e_trace_" + std::string(workload) + ".json";
  std::error_code ec;
  std::filesystem::create_directories("bench_out", ec);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    rep.fail(1, "cannot write " + path);
    return;
  }
  std::uint64_t empty = 0, dropped = 0;
  for (const auto& cs : consumer_spans_) {
    empty += cs.empty;
    dropped += cs.dropped;
  }
  std::fprintf(f,
               "{\"workload\": \"%.*s\", \"empty_cycles_not_kept\": %llu, "
               "\"dropped_cycle_spans\": %llu,\n \"spans\": [\n",
               static_cast<int>(workload.size()), workload.data(),
               static_cast<unsigned long long>(empty),
               static_cast<unsigned long long>(dropped));
  bool first = true;
  auto emit = [&](const Span& s) {
    const long long parent =
        s.parent == kNone ? -1 : static_cast<long long>(s.parent);
    std::fprintf(f,
                 "%s  {\"name\": \"%s\", \"start_ns\": %llu, \"end_ns\": %llu, "
                 "\"parent\": %lld, \"round\": %llu}",
                 first ? "" : ",\n", names_[s.name].c_str(),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns), parent,
                 static_cast<unsigned long long>(s.round));
    first = false;
  };
  for (const auto& s : spans_) emit(s);
  for (const auto& cs : consumer_spans_) {
    for (const auto& s : cs.spans) emit(s);
  }
  std::fprintf(f, "\n]}\n");
  if (std::fclose(f) != 0) rep.fail(1, "cannot write " + path);
}

// --- statistics --------------------------------------------------------------

namespace {
/// A `Vm...:  N kB` line of /proc/self/status in MB; NaN when unreadable,
/// which the report then counts as a missing metric.
double proc_status_mb(std::string_view field) {
  double kb = std::nan("");
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return kb;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    const std::string_view l = line;
    if (l.size() > field.size() && l.substr(0, field.size()) == field &&
        l[field.size()] == ':') {
      kb = std::strtod(line + field.size() + 1, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}
}  // namespace

void RssMeter::begin() {
  malloc_trim(0);
  inputs_mb_ = proc_status_mb("VmRSS");
  // Writing 5 to clear_refs restarts VmHWM at the current RSS.
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  bool reset = false;
  if (f != nullptr) {
    const bool wrote = std::fputs("5", f) >= 0;
    reset = std::fclose(f) == 0 && wrote;
  }
  if (!reset) {
    std::fprintf(stderr,
                 "bench_e2e: cannot restart the peak RSS; peak_rss_mb then "
                 "includes input generation\n");
  }
}

double RssMeter::peak_mb() const {
  return proc_status_mb("VmHWM") - inputs_mb_;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

namespace {
template <typename Fn>
double median_over_slices(const std::vector<double>& unit_us, Fn&& stat) {
  const std::size_t n = unit_us.size();
  const std::size_t slices = std::min(kSlices, n);
  std::vector<double> per_slice;
  for (std::size_t s = 0; s < slices; ++s) {
    per_slice.push_back(stat(std::vector<double>(
        unit_us.begin() + static_cast<std::ptrdiff_t>(s * n / slices),
        unit_us.begin() + static_cast<std::ptrdiff_t>((s + 1) * n / slices))));
  }
  return median(std::move(per_slice));
}
}  // namespace

double sliced_quantile(const std::vector<double>& unit_us, double q) {
  return median_over_slices(
      unit_us, [q](std::vector<double> slice) { return quantile(std::move(slice), q); });
}

double sliced_rate(const std::vector<double>& unit_us, double ticks_per_unit) {
  return median_over_slices(unit_us, [ticks_per_unit](std::vector<double> slice) {
    double us = 0.0;
    for (const double v : slice) us += v;
    return static_cast<double>(slice.size()) * ticks_per_unit * 1e6 / us;
  });
}

}  // namespace e2e
