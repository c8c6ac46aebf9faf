// The benchmark workloads and the traced-run layer probes.
//
// Every workload function takes only the seed-derived configuration, builds
// its own inputs, measures for the given number of seconds, checks every
// output against an independent compile, and returns the end-to-end metrics
// (see README.md for the definition of each metric on each workload).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/compiled_model.hpp"

namespace perfbench {

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Least number of set-ups timed (setup_s is their median); see
  /// repeat_setup.
  int setup_reps = 5;
  /// Spans around the calls into the program; null or disabled = untraced.
  SpanBuffer* spans = nullptr;
};

struct WorkloadResult {
  Metrics metrics;           // end-to-end metrics
  Metrics layer;             // per-layer metrics the workload itself yields
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // failed by the server or mismatched
  bool correct = true;       // every output matched its reference
  /// Extra JSON members for the info line (kernel tiers, phase accounting).
  std::vector<std::pair<std::string, std::string>> info;
};

/// Open-loop Poisson LeNet serving at three fixed rates (low/mid/over).
WorkloadResult run_serve_lenet(const RunConfig& cfg);
/// Closed-loop batch-8 VGG9 through CompiledModel::run on gemm.
WorkloadResult run_offline_vgg9(const RunConfig& cfg);
/// Closed-loop batch-8 56x56 scenes through capture_and_infer into LeNet.
WorkloadResult run_edge_capture(const RunConfig& cfg);

/// Digest of every arrival serve_lenet offers in a run of `seconds` (count
/// and hash): the schedule is a pure function of the seed — the self-test
/// checks this.
std::string serve_schedule_digest(std::uint64_t seed, double seconds);

/// Digest of the frames LightatorSystem::acquire yields for every scene of
/// edge_capture's input pool at `seed`, bit for bit: the self-test pins it,
/// so a sensor or compressive-acquisitor change that alters the acquired
/// frames shows (the run's own check re-acquires through the same code).
std::string edge_acquire_digest(std::uint64_t seed);

/// Isolated calls into each layer's public functions (core, tensor,
/// sensor/CA, optics) plus the modelled Lightator cost, each wrapped in a
/// span of `spans`: the per-layer metrics derived from those spans, and the
/// frames of the noisy physical forward checked against their reference (a
/// compile with every pass and the prepacking off, same noise).
struct ProbeResult {
  Metrics metrics;
  std::uint64_t checked = 0;
  std::uint64_t mismatched = 0;
};
ProbeResult run_layer_probes(std::uint64_t seed, SpanBuffer& spans);

/// JSON array of the kernel tier each weighted layer's GEMM resolves to.
std::string kernel_tiers_json(const lightator::core::CompiledModel& model);

}  // namespace perfbench
