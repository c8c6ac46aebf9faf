// perfbench: the repository benchmark binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <path>]
//   perfbench --schedule-digest --seed <n> --seconds <s>
//   perfbench --acquire-digest --seed <n>
//
// --trace 0 runs the workload untraced and prints the end-to-end metrics.
// --trace 1 runs it twice for half the seconds each, untraced then with the
// benchmark's span buffer on (their frames_per_s difference is the tracing
// overhead), runs the layer probes, and prints the per-layer metrics; the
// span buffer is written to --trace-out. The last stdout line is the result
// object; the line before it records the host and build fingerprint. Exit
// status is 0 only when every output matched its reference (3 when one did
// not).
#include <cstdio>
#include <exception>
#include <map>
#include <sstream>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

using WorkloadFn = WorkloadResult (*)(const RunConfig&);

const std::map<std::string, WorkloadFn>& workloads() {
  static const std::map<std::string, WorkloadFn> w = {
      {"serve_lenet", &run_serve_lenet},
      {"offline_vgg9", &run_offline_vgg9},
      {"edge_capture", &run_edge_capture}};
  return w;
}

/// Serving phases measured inside the traced run of the other workloads,
/// so every traced run reports every per-layer metric.
constexpr double kServeProbeSeconds = 2.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  bool schedule_digest = false;
  bool acquire_digest = false;
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--schedule-digest" || k == "--acquire-digest") {
      (k == "--schedule-digest" ? a.schedule_digest : a.acquire_digest) = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace is 0 or 1");
      a.trace = v == "1";
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  if (!a.schedule_digest && !a.acquire_digest &&
      (!have_workload || workloads().count(a.workload) == 0)) {
    throw std::invalid_argument("unknown or missing --workload");
  }
  return a;
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const Metrics& metrics) {
  std::ostringstream j;
  j << "{\"correct\": " << (correct ? "true" : "false")
    << ", \"attempted\": " << attempted << ", \"failed\": " << failed
    << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics.all()) {
    j << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
      << json_number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  j << "}}";
  return j.str();
}

/// The run record: workload, seed, host and build fingerprint, and the
/// workload's own entries.
std::string record_line(
    const Args& a,
    const std::vector<std::pair<std::string, std::string>>& info) {
  std::ostringstream line;
  line << "{\"workload\": \"" << a.workload << "\", \"seed\": " << a.seed
       << ", \"seconds\": " << json_number(a.seconds)
       << ", \"trace\": " << (a.trace ? 1 : 0)
       << ", \"fingerprint\": " << host_fingerprint_json();
  for (const auto& [k, v] : info) line << ", \"" << k << "\": " << v;
  line << "}";
  return line.str();
}

int run(const Args& a) {
  if (a.schedule_digest) {
    std::printf("%s\n", serve_schedule_digest(a.seed, a.seconds).c_str());
    return 0;
  }
  if (a.acquire_digest) {
    std::printf("%s\n", edge_acquire_digest(a.seed).c_str());
    return 0;
  }
  const WorkloadFn fn = workloads().at(a.workload);
  WorkloadResult res;
  Metrics printed;
  std::vector<std::pair<std::string, std::string>> info;

  if (!a.trace) {
    RunConfig cfg;
    cfg.seed = a.seed;
    cfg.seconds = a.seconds;
    res = fn(cfg);
    printed = res.metrics;
    info = res.info;
  } else {
    SpanBuffer spans(true);
    RunConfig off;
    off.seed = a.seed;
    off.seconds = a.seconds / 2.0;
    off.setup_reps = 1;
    const WorkloadResult untraced = fn(off);

    RunConfig on = off;
    on.spans = &spans;
    const int root = spans.begin("workload");
    res = fn(on);
    spans.end(root);
    info = res.info;

    const double fps_off = untraced.metrics.find("frames_per_s")->value;
    const double fps_on = res.metrics.find("frames_per_s")->value;
    res.attempted += untraced.attempted;
    res.failed += untraced.failed;
    res.correct = res.correct && untraced.correct;

    Metrics serve_layer = res.layer;
    if (a.workload != "serve_lenet") {
      RunConfig sp = off;
      sp.seconds = kServeProbeSeconds;
      sp.spans = &spans;
      const int s = spans.begin("probe.serve");
      const WorkloadResult served = run_serve_lenet(sp);
      spans.end(s);
      res.attempted += served.attempted;
      res.failed += served.failed;
      res.correct = res.correct && served.correct;
      serve_layer = served.layer;
    }
    printed.merge(serve_layer);
    const ProbeResult probes = run_layer_probes(a.seed, spans);
    printed.merge(probes.metrics);
    res.attempted += probes.checked;
    res.failed += probes.mismatched;
    res.correct = res.correct && probes.mismatched == 0;
    printed.set("trace.overhead_share", (fps_off - fps_on) / fps_off, "share");
    printed.set("trace.spans", static_cast<double>(spans.size()), "count");
    if (!a.trace_out.empty() && !spans.write_chrome_json(a.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", a.trace_out.c_str());
      return 1;
    }
  }

  std::printf("%s\n", record_line(a, info).c_str());
  std::printf("%s\n",
              result_json(res.correct, res.attempted, res.failed, printed)
                  .c_str());
  std::fflush(stdout);
  return res.correct ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
