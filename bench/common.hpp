// Shared harness for the table/figure reproduction benches.
//
// Evaluation conventions (uniform across all models, documented in
// EXPERIMENTS.md):
//  * Node-power methods are scored on the *unmeasured* ticks of each test
//    run — the restoration targets; measured ticks are IM readings every
//    model gets for free.
//  * Component-power methods are scored on all ticks (components are never
//    measured in deployment).
//  * Metrics are computed per fold (pooled over that fold's test runs) and
//    averaged across the seven suite folds, matching §5.3's protocol.
//
// Execution model: every bench builds a list of ModelTask entries and hands
// them to run_models_parallel, which fans the tasks out over the runtime
// thread pool (HIGHRPM_THREADS). Results come back in task order and all
// per-task randomness is seeded from loop-constant state, so the result CSV
// is byte-identical for any thread count. Wall-clock timings go to a
// *separate* bench_out/<name>_timing.csv — they are the one output that may
// legitimately differ between runs.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "highrpm/core/protocol.hpp"
#include "highrpm/math/metrics.hpp"

namespace highrpm::bench {

/// The run size a bench command line selects.
enum class Preset { kDefault, kQuick, kFull };

/// The one command-line parser every bench uses. It accepts --quick and
/// --full (the last one given wins) and --help/-h, which prints the usage
/// text and exits 0. Any other argument prints "<prog>: unknown argument
/// '<arg>'" and the usage text to stderr and exits 2, so a typo never
/// starts the default sweep.
Preset parse_preset(int argc, char** argv);

struct Options {
  std::size_t samples_per_suite = 600;
  std::size_t max_workloads_per_suite = 5;
  std::size_t min_ticks_per_workload = 60;
  std::size_t rnn_epochs = 25;
  std::size_t srr_epochs = 60;
  std::size_t miss_interval = 10;
  /// DynamicTRR offline-training window stride (1 = every window; the
  /// sweep benches raise it to bound their cost).
  std::size_t dynamic_trr_stride = 1;
  std::uint64_t seed = 2023;

  /// Parse CLI args with parse_preset: "--quick" shrinks everything for
  /// smoke runs, "--full" approaches the paper's 1000 samples/suite.
  static Options from_args(int argc, char** argv);

  core::ProtocolConfig protocol(
      const sim::PlatformConfig& platform) const;
};

using Splits = std::vector<core::EvalSplit>;

/// Arithmetic mean of per-fold reports.
math::MetricReport average(const std::vector<math::MetricReport>& reports);

/// Score a per-tick node-power prediction on a run's unmeasured ticks,
/// starting at score_start (the seen-fold tail boundary; 0 = whole run).
void accumulate_restored(const measure::CollectedRun& run,
                         const std::vector<double>& pred,
                         std::vector<double>& truth_out,
                         std::vector<double>& pred_out,
                         std::size_t score_start = 0);

// --- model evaluators (each returns the fold-averaged report) ---

/// Pointwise Table-4 baseline on a target ("P_NODE"/"P_CPU"/"P_MEM").
math::MetricReport eval_pointwise(const std::string& model,
                                  const Splits& splits,
                                  const std::string& target,
                                  const Options& opt);

/// GRU/LSTM baseline: pure-PMC windows, per-step target labels.
math::MetricReport eval_rnn(const std::string& model, const Splits& splits,
                            const std::string& target, const Options& opt);

/// Cubic spline through each test run's own IPMI readings (no training).
math::MetricReport eval_spline(const Splits& splits, const Options& opt);

/// ARIMA(p=2, d=1) interpolation through each test run's IPMI readings —
/// the other classical trend model the paper names in §4.2.1.
math::MetricReport eval_arima(const Splits& splits, const Options& opt);

/// StaticTRR per test run (spline + DT residual + Algorithm 1).
math::MetricReport eval_static_trr(const Splits& splits, const Options& opt);

/// DynamicTRR: offline-trained on the fold's training runs, streamed over
/// each test run with online fine-tuning.
math::MetricReport eval_dynamic_trr(const Splits& splits, const Options& opt);

struct ComponentReports {
  math::MetricReport cpu;
  math::MetricReport mem;
};

/// SRR trained on the fold's training runs; at test time the node-power
/// input is the StaticTRR restoration of the test run (deployment-faithful).
ComponentReports eval_srr(const Splits& splits, bool include_pnode,
                          const Options& opt);

// --- output helpers ---

struct TableRow {
  std::string type;
  std::string model;
  std::vector<math::MetricReport> cells;  // one per column group
};

// --- parallel model harness ---

/// One self-contained unit of bench work: evaluate a model (or a sweep
/// point) and return its row of metric cells. eval must be a pure function
/// of captured loop-constant state — no shared mutable captures — so tasks
/// can run concurrently and still produce thread-count-independent rows.
struct ModelTask {
  std::string type;
  std::string model;
  std::function<std::vector<math::MetricReport>()> eval;
};

/// Wall-clock seconds a task took (scheduling-dependent; never mixed into
/// the result CSVs).
struct TaskTiming {
  std::string model;
  double wall_s = 0.0;
};

/// Run every task on the runtime thread pool and return the rows in task
/// order. Progress lines print as tasks finish (completion order may vary
/// with threading; the returned rows never do). When `timings` is non-null
/// it receives one entry per task plus a trailing "total" entry with the
/// whole harness's wall time.
std::vector<TableRow> run_models_parallel(
    const std::vector<ModelTask>& tasks,
    std::vector<TaskTiming>* timings = nullptr);

/// Print a paper-style table: each cell renders MAPE/RMSE/MAE.
void print_table(const std::string& title,
                 const std::vector<std::string>& cell_headers,
                 const std::vector<TableRow>& rows);

/// Persist rows to bench_out/<name>.csv (directory created on demand).
void write_csv(const std::string& name,
               const std::vector<std::string>& cell_headers,
               const std::vector<TableRow>& rows);

/// Persist timings to bench_out/<name>_timing.csv (model,wall_s,threads).
/// Kept separate from the result CSV so result bytes stay identical across
/// thread counts.
void write_timing_csv(const std::string& name,
                      const std::vector<TaskTiming>& timings);

}  // namespace highrpm::bench
