// Layer measurements shared by the workloads' traced runs.
#pragma once

#include <span>

#include "harness.hpp"

namespace e2e {

/// Core, ml and adapt layer probe, run after the timed phase: objects
/// cloned from the golden instance are fed the workload's own pooled ticks
/// in cohorts of `cohort` lanes (the size one consumer owns), and `logs`
/// are restored through StaticTRR. Reports core.*, ml.* and adapt.observe_ns
/// and returns core.step_cohort_ns_per_lane.
double run_layer_probe(const core::HighRpm& golden, const TickPool& pool,
                       std::size_t cohort,
                       std::span<const measure::CollectedRun> logs,
                       Tracer& tracer, Report& rep);

/// The serve layer for a workload without a daemon (log_restore): a short
/// closed loop of 128 nodes over the same trained model, measured and
/// checked exactly like the streaming workloads, followed by the layer
/// probe.
void serve_probe(const Workload& w, const core::HighRpm& golden,
                 std::uint64_t seed,
                 std::span<const measure::CollectedRun> logs, Tracer& tracer,
                 Report& rep);

}  // namespace e2e
