// Table 9: HighRPM on the x86 platform, unseen applications only.
//
// The paper reads RAPL through perf and sparsifies it to 0.1 Sa/s. Here the
// corpus is collected on the x86 preset with the same IpmiSensor model the
// ARM tables use, at a miss_interval of 10 s (0.1 Sa/s), and the component
// labels come from the direct-measurement rig. Both temporal restoration
// (P_Node) and spatial restoration (P_CPU, P_MEM) are evaluated.
// Paper headline: DynamicTRR 3.48% MAPE (4-10 points better than the
// alternatives); SRR ~9.9% CPU / 10.6% MEM; all errors slightly above the
// ARM numbers because of the higher clock.
#include <cstdio>

#include "common.hpp"

using namespace highrpm;

int main(int argc, char** argv) {
  auto opt = bench::Options::from_args(argc, argv);
  opt.seed ^= 0x58363836ULL;  // independent corpus from the ARM tables
  std::printf("Table 9 reproduction: x86 platform, unseen applications, "
              "%zu samples/suite\n", opt.samples_per_suite);
  const auto data =
      core::collect_all_suites(opt.protocol(sim::PlatformConfig::x86()));
  const auto unseen = core::make_unseen_splits(data);

  // Columns: temporal P_Node | spatial P_CPU | spatial P_MEM.
  std::vector<bench::ModelTask> tasks;
  const std::vector<std::pair<std::string, std::string>> pointwise = {
      {"Linear", "LR"},    {"Linear", "LaR"},    {"Linear", "RR"},
      {"Linear", "SGD"},   {"Nonlin.", "DT"},    {"Nonlin.", "RF"},
      {"Nonlin.", "GB"},   {"Nonlin.", "KNN"},   {"Nonlin.", "SVM"},
      {"Nonlin.", "NN"}};
  for (const auto& [type, model] : pointwise) {
    tasks.push_back(bench::ModelTask{
        type, model, [model = model, &unseen, &opt] {
          return std::vector<math::MetricReport>{
              bench::eval_pointwise(model, unseen, "P_NODE", opt),
              bench::eval_pointwise(model, unseen, "P_CPU", opt),
              bench::eval_pointwise(model, unseen, "P_MEM", opt)};
        }});
  }
  for (const std::string model : {"GRU", "LSTM"}) {
    tasks.push_back(bench::ModelTask{
        "RNN", model, [model, &unseen, &opt] {
          return std::vector<math::MetricReport>{
              bench::eval_rnn(model, unseen, "P_NODE", opt),
              bench::eval_rnn(model, unseen, "P_CPU", opt),
              bench::eval_rnn(model, unseen, "P_MEM", opt)};
        }});
  }
  const math::MetricReport blank;
  tasks.push_back(bench::ModelTask{"TRR", "Spline", [&unseen, &opt, blank] {
    return std::vector<math::MetricReport>{bench::eval_spline(unseen, opt),
                                           blank, blank};
  }});
  tasks.push_back(bench::ModelTask{
      "TRR", "StaticTRR", [&unseen, &opt, blank] {
        return std::vector<math::MetricReport>{
            bench::eval_static_trr(unseen, opt), blank, blank};
      }});
  tasks.push_back(bench::ModelTask{
      "TRR", "DynamicTRR", [&unseen, &opt, blank] {
        return std::vector<math::MetricReport>{
            bench::eval_dynamic_trr(unseen, opt), blank, blank};
      }});
  tasks.push_back(bench::ModelTask{"SRR", "SRR", [&unseen, &opt, blank] {
    const auto srr = bench::eval_srr(unseen, true, opt);
    return std::vector<math::MetricReport>{blank, srr.cpu, srr.mem};
  }});
  std::vector<bench::TaskTiming> timings;
  const auto rows = bench::run_models_parallel(tasks, &timings);

  bench::print_table("Table 9: x86 system, unseen applications",
                     {"Temporal P_Node", "Spatial P_CPU", "Spatial P_MEM"},
                     rows);
  bench::write_csv("table9_x86", {"p_node", "p_cpu", "p_mem"}, rows);
  bench::write_timing_csv("table9_x86", timings);

  // Shape checks.
  double best_node = 1e9;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].type != "TRR" && rows[i].type != "SRR" &&
        rows[i].cells[0].mape > 0) {
      best_node = std::min(best_node, rows[i].cells[0].mape);
    }
  }
  const double dyn = rows[rows.size() - 2].cells[0].mape;
  std::printf("\nShape check: DynamicTRR %.2f%% vs best non-TRR %.2f%%  %s\n",
              dyn, best_node, dyn < best_node ? "OK" : "WEAK");
  return 0;
}
