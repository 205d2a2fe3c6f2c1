// bench_e2e — the repository's end-to-end benchmark binary.
//
// One process measures one workload (bench.py starts a fresh process per
// workload). The runtime pool is pinned to two threads; streaming
// workloads run one generator thread plus two daemon consumers.
//
// Exit status: 0 when every correctness check passed, 1 when one failed
// (the result line then says "correct": false), 2 on a usage error.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "harness.hpp"
#include "highrpm/runtime/thread_pool.hpp"

namespace {

using e2e::Options;

void usage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: bench_e2e --workload W --seconds N [--seed S] [--trace]\n"
      "       bench_e2e --smoke [--workload W] [--seed S]\n"
      "  --workload W  fleet_saturate | fleet_paced | tenant_adaptive |\n"
      "                log_restore\n"
      "  --seconds N   measured seconds, 1 to 60; sizes the work, so equal\n"
      "                arguments always do equal work\n"
      "  --seed S      input seed, a non-negative integer (default %llu)\n"
      "  --trace       per-layer run: layer metrics, spans written to\n"
      "                bench_out/e2e_trace_<workload>.json\n"
      "  --smoke       tiny sizes of every workload (or of --workload) with\n"
      "                every correctness check\n"
      "  --help        print this text\n",
      static_cast<unsigned long long>(e2e::kDefaultSeed));
}

[[noreturn]] void bad_usage(const std::string& why) {
  std::fprintf(stderr, "bench_e2e: %s\n", why.c_str());
  usage(stderr);
  std::exit(2);
}

std::string_view value_of(int argc, char** argv, int& i) {
  if (i + 1 >= argc) bad_usage(std::string(argv[i]) + " needs a value");
  return argv[++i];
}

Options parse_args(int argc, char** argv) {
  Options opt;
  bool workload_given = false;
  bool seconds_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(stdout);
      std::exit(0);
    } else if (arg == "--workload") {
      const std::string_view name = value_of(argc, argv, i);
      opt.workload = e2e::find_workload(name);
      if (opt.workload == nullptr) {
        bad_usage("unknown workload '" + std::string(name) + "'");
      }
      workload_given = true;
    } else if (arg == "--seed") {
      const std::string_view v = value_of(argc, argv, i);
      const auto [ptr, ec] =
          std::from_chars(v.data(), v.data() + v.size(), opt.seed);
      if (ec != std::errc{} || ptr != v.data() + v.size()) {
        bad_usage("--seed needs a non-negative integer, got '" +
                  std::string(v) + "'");
      }
    } else if (arg == "--seconds") {
      const std::string v(value_of(argc, argv, i));
      char* end = nullptr;
      const double s = std::strtod(v.c_str(), &end);
      if (v.empty() || end != v.c_str() + v.size() || !std::isfinite(s) ||
          s < 1.0 || s > 60.0) {
        bad_usage("--seconds needs a number from 1 to 60, got '" + v + "'");
      }
      opt.seconds = s;
      seconds_given = true;
    } else if (arg == "--trace") {
      opt.trace = true;
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else {
      bad_usage("unknown argument '" + std::string(arg) + "'");
    }
  }
  if (!opt.smoke) {
    if (!workload_given) bad_usage("--workload is required");
    if (!seconds_given) bad_usage("--seconds is required");
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt = parse_args(argc, argv);
  highrpm::runtime::set_thread_count(e2e::kPoolThreads);

  std::vector<const e2e::Workload*> runs;
  if (opt.workload != nullptr) {
    runs.push_back(opt.workload);
  } else {
    for (const auto& w : e2e::all_workloads()) runs.push_back(&w);
  }
  bool correct = true;
  for (const e2e::Workload* w : runs) {
    opt.workload = w;
    e2e::Report rep{std::string(w->name)};
    try {
      if (w->loop == e2e::Loop::kBatch) {
        e2e::run_log_restore(*w, opt, rep);
      } else {
        e2e::run_streaming(*w, opt, rep);
      }
    } catch (const std::exception& e) {
      rep.fail(1, std::string("exception: ") + e.what());
    }
    rep.print(opt.trace);
    correct = correct && rep.correct();
  }
  return correct ? 0 : 1;
}
