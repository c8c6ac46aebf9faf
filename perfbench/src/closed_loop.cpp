// The closed-loop workloads: one stream, the next call issued as soon as the
// previous one returns, on a 2-thread pool.
//
//   offline_vgg9   stacked VGG9 32x32x3 frames through CompiledModel::run on
//                  the autotuned gemm backend (GEMM-bound, no serving code);
//   edge_capture   56x56 RGB scenes through LightatorSystem::capture_and_infer
//                  with sensor noise and the compressive acquisitor into
//                  LeNet on gemm (acquisition-bound).
//
// Every call is one batch of 8 frames. Inputs cycle through a small seeded
// pool; every call's output must equal the first output of its pool entry,
// and every first output must equal a reference-backend compile's on the
// same frames.
#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <sstream>

#include "core/lightator.hpp"
#include "nn/models.hpp"
#include "sensor/image.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"
#include "workloads/scenes.hpp"

namespace perfbench {

using namespace lightator;

namespace {

constexpr std::size_t kBatch = 8;
constexpr std::size_t kPoolThreads = 2;
constexpr std::uint64_t kLenetSeed = 21;
constexpr std::uint64_t kVggSeed = 23;
/// The run is cut into consecutive blocks of calls, each about this many
/// seconds of busy time; every end-to-end figure is the quiet_figure of the
/// blocks' figures.
constexpr double kWindowSeconds = 1.0;

struct LoopFigures {
  double p50_ms = 0.0;
  double frames_per_s = 0.0;
};

LoopFigures loop_figures(const std::vector<double>& latency_ms,
                         double busy_s) {
  const std::size_t calls = latency_ms.size();
  const std::size_t windows = std::clamp<std::size_t>(
      static_cast<std::size_t>(busy_s / kWindowSeconds), 1, calls);
  std::vector<double> p50, rate;
  for (std::size_t w = 0; w < windows; ++w) {
    const std::vector<double> block(
        latency_ms.begin() + static_cast<std::ptrdiff_t>(calls * w / windows),
        latency_ms.begin() +
            static_cast<std::ptrdiff_t>(calls * (w + 1) / windows));
    double ms = 0.0;
    for (double l : block) ms += l;
    p50.push_back(quantile(block, 0.50));
    rate.push_back(static_cast<double>(block.size() * kBatch) / (ms * 1e-3));
  }
  return {quiet_figure(p50, Better::kLower),
          quiet_figure(rate, Better::kHigher)};
}

using Logits = std::vector<float>;

Logits to_logits(const core::BatchOutput& out) {
  const tensor::Tensor& t = out.logits();
  return Logits(t.data(), t.data() + t.size());
}

/// The calls of a run: latencies in time order, and per pool entry the
/// frames run, the frames whose output drifted from that entry's first
/// output, and the first output itself.
struct LoopResult {
  std::vector<double> latency_ms;
  std::vector<std::uint64_t> frames;
  std::vector<std::uint64_t> unstable;
  std::vector<Logits> first;
  double busy_s = 0.0;

  std::uint64_t total_frames() const {
    std::uint64_t n = 0;
    for (std::uint64_t f : frames) n += f;
    return n;
  }
};

/// Runs batch-8 calls back to back for `seconds` (and at least one pass over
/// the pool). call(k) runs pool entry k; outputs are compared outside the
/// timed interval.
LoopResult closed_loop(double seconds, std::size_t pool,
                       const std::function<core::BatchOutput(std::size_t)>& call,
                       SpanBuffer* spans, const char* span_name) {
  LoopResult l;
  l.frames.assign(pool, 0);
  l.unstable.assign(pool, 0);
  l.first.resize(pool);
  const Clock::time_point start = Clock::now();
  for (std::uint64_t i = 0;; ++i) {
    const std::size_t k = i % pool;
    const int span = spans != nullptr
                         ? spans->begin(span_name, SpanBuffer::kNone, i)
                         : SpanBuffer::kNone;
    const Clock::time_point t0 = Clock::now();
    const core::BatchOutput out = call(k);
    const Clock::time_point t1 = Clock::now();
    if (spans != nullptr) spans->end(span);
    l.latency_ms.push_back(seconds_between(t0, t1) * 1e3);
    l.busy_s += seconds_between(t0, t1);
    l.frames[k] += kBatch;
    Logits got = to_logits(out);
    if (l.first[k].empty()) {
      l.first[k] = std::move(got);
    } else if (got != l.first[k]) {
      l.unstable[k] += kBatch;
    }
    if (seconds_between(start, t1) >= seconds && i + 1 >= pool) break;
  }
  return l;
}

bool same_bits(const Logits& a, const core::BatchOutput& b) {
  const tensor::Tensor& t = b.logits();
  return a.size() == t.size() &&
         std::memcmp(a.data(), t.data(), a.size() * sizeof(float)) == 0;
}

/// Frames of `loop` that failed: drifted outputs, plus every frame of a
/// pool entry whose first output differs from its reference.
std::uint64_t failed_frames(const LoopResult& loop,
                            const std::function<core::BatchOutput(std::size_t)>&
                                reference,
                            bool& correct) {
  std::uint64_t failed = 0;
  for (std::size_t k = 0; k < loop.first.size(); ++k) {
    if (!same_bits(loop.first[k], reference(k))) {
      failed += loop.frames[k];
      correct = false;
    } else {
      failed += loop.unstable[k];
      correct = correct && loop.unstable[k] == 0;
    }
  }
  return failed;
}

/// The end-to-end metrics every closed-loop workload reports. The latency
/// names are the serving phases' (every workload prints every end-to-end
/// metric); here `low` and `mid` both stand for the one batch-8 call stream,
/// and goodput_rps.over for its frames with correct output per second.
void set_closed_loop_metrics(WorkloadResult& res, const LoopResult& loop,
                             std::uint64_t failed,
                             const std::vector<double>& setup_s) {
  const LoopFigures f = loop_figures(loop.latency_ms, loop.busy_s);
  for (const char* phase : {"low", "mid"}) {
    res.metrics.set(std::string("p50_ms.") + phase, f.p50_ms, "ms");
  }
  const double frames = static_cast<double>(loop.total_frames());
  res.metrics.set("frames_per_s", f.frames_per_s, "1/s");
  res.metrics.set("goodput_rps.over",
                  f.frames_per_s * (frames - static_cast<double>(failed)) /
                      frames,
                  "1/s");
  res.metrics.set("setup_s", median(setup_s), "s");
}

/// Shared runner of the closed loops: set-up repeated (median
/// reported), measure the loop, read peak RSS, then check every pool entry
/// against `reference`.
struct ClosedLoopSpec {
  std::size_t pool = 2;
  /// Builds the system and compiled model; returns the model.
  std::function<core::CompiledModel(std::unique_ptr<core::LightatorSystem>&)>
      setup;
  /// Runs pool entry k (one batch of kBatch frames).
  std::function<core::BatchOutput(const core::CompiledModel&,
                                  core::ExecutionContext&, std::size_t)>
      call;
  /// Reference output for pool entry k; built after the measurement.
  std::function<std::function<core::BatchOutput(std::size_t)>()> reference;
  /// Span name of a call.
  const char* span_name = "core.run.b8";
  const char* model_name = "model";
};

WorkloadResult run_closed(const ClosedLoopSpec& spec, const RunConfig& cfg) {
  WorkloadResult res;
  std::vector<double> setup_s;
  std::unique_ptr<core::LightatorSystem> sys;
  core::CompiledModel model;
  std::unique_ptr<util::ThreadPool> pool;
  std::unique_ptr<core::ExecutionContext> ctx;
  while (repeat_setup(setup_s, cfg.setup_reps)) {
    ctx.reset();
    pool.reset();
    model = core::CompiledModel();
    sys.reset();
    const Clock::time_point t0 = Clock::now();
    model = spec.setup(sys);
    pool = std::make_unique<util::ThreadPool>(kPoolThreads);
    ctx = std::make_unique<core::ExecutionContext>();
    ctx->pool = pool.get();
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  // One untimed call: first-touch of the arena.
  spec.call(model, *ctx, 0);

  const LoopResult loop = closed_loop(
      cfg.seconds, spec.pool,
      [&](std::size_t k) { return spec.call(model, *ctx, k); }, cfg.spans,
      spec.span_name);
  const double rss = peak_rss_mb();

  res.info.emplace_back(std::string("kernel_tiers_") + spec.model_name,
                        kernel_tiers_json(model));
  ctx.reset();
  pool.reset();

  res.attempted = loop.total_frames();
  res.failed = failed_frames(loop, spec.reference(), res.correct);
  set_closed_loop_metrics(res, loop, res.failed, setup_s);
  res.metrics.set("peak_rss_mb", rss, "MiB");
  return res;
}

/// Seeded stacked batches [kBatch, C, H, W] of one geometry.
std::vector<tensor::Tensor> make_batches(std::uint64_t seed, std::size_t pool,
                                         std::size_t c, std::size_t h,
                                         std::size_t w) {
  util::Rng rng(seed);
  std::vector<tensor::Tensor> batches;
  for (std::size_t k = 0; k < pool; ++k) {
    tensor::Tensor b({kBatch, c, h, w});
    b.fill_uniform(rng, 0.0f, 1.0f);
    batches.push_back(std::move(b));
  }
  return batches;
}

const nn::PrecisionSchedule& precision() {
  static const nn::PrecisionSchedule s = nn::PrecisionSchedule::uniform(4);
  return s;
}

/// A compile kept alive for the reference runs, with its own 2-thread pool.
struct ReferenceModel {
  core::LightatorSystem sys{core::ArchConfig::defaults()};
  core::CompiledModel model;
  util::ThreadPool pool{kPoolThreads};

  core::BatchOutput run(const tensor::Tensor& x) {
    core::ExecutionContext ctx;
    ctx.pool = &pool;
    return model.run(x, ctx);
  }
  core::BatchOutput run(const std::vector<const tensor::Tensor*>& frames) {
    core::ExecutionContext ctx;
    ctx.pool = &pool;
    return model.run(frames, ctx);
  }
};

std::shared_ptr<ReferenceModel> reference_model(const nn::Network& net) {
  auto ref = std::make_shared<ReferenceModel>();
  core::CompileOptions co;
  co.backend = "reference";
  co.schedule = precision();
  ref->model = ref->sys.compile(net, co);
  return ref;
}

/// The edge_capture input pool: kBatch scenes per entry, each entry with its
/// own sensor-noise seed.
struct EdgePool {
  std::vector<std::vector<sensor::Image>> scenes;
  std::vector<std::uint64_t> noise_seed;
};

constexpr std::size_t kEdgePool = 4;
const core::CaOptions kEdgeCa{2, true, 4};

EdgePool make_edge_pool(std::uint64_t seed) {
  util::Rng scene_rng(seed);
  EdgePool p;
  p.scenes.resize(kEdgePool);
  for (std::size_t k = 0; k < kEdgePool; ++k) {
    for (std::size_t i = 0; i < kBatch; ++i) {
      p.scenes[k].push_back(workloads::make_blob_scene(56, 56, scene_rng));
    }
    p.noise_seed.push_back(core::mix_seed(seed, /*stream=*/7, k));
  }
  return p;
}

/// Acquires entry k's scenes one by one through LightatorSystem::acquire,
/// with the per-frame noise seeds capture_and_infer uses (frame i from
/// mix_seed(seed, 0, i)).
std::vector<tensor::Tensor> acquire_entry(const core::LightatorSystem& sys,
                                          const EdgePool& pool,
                                          std::size_t k) {
  std::vector<tensor::Tensor> acquired;
  for (std::size_t i = 0; i < pool.scenes[k].size(); ++i) {
    util::Rng noise(core::mix_seed(pool.noise_seed[k], /*stream=*/0, i));
    acquired.push_back(sys.acquire(pool.scenes[k][i], kEdgeCa, &noise));
  }
  return acquired;
}

}  // namespace

std::string kernel_tiers_json(const core::CompiledModel& model) {
  std::ostringstream s;
  s << "[";
  for (std::size_t i = 0; i < model.num_weighted_layers(); ++i) {
    s << (i ? ", " : "") << "\""
      << tensor::simd::tier_name(
             tensor::simd::resolve_tier(model.kernel_config(i).tier))
      << "\"";
  }
  s << "]";
  return s.str();
}

WorkloadResult run_offline_vgg9(const RunConfig& cfg) {
  util::Rng model_rng(kVggSeed);
  const nn::Network net = nn::build_vgg9(model_rng);
  ClosedLoopSpec spec;
  spec.pool = 1;
  const std::vector<tensor::Tensor> batches =
      make_batches(cfg.seed, spec.pool, 3, 32, 32);
  spec.model_name = "vgg9";
  spec.setup = [&](std::unique_ptr<core::LightatorSystem>& sys) {
    sys = std::make_unique<core::LightatorSystem>(core::ArchConfig::defaults());
    core::CompileOptions co;
    co.backend = "gemm";
    co.schedule = precision();
    co.input_shape = {1, 3, 32, 32};
    co.batch_hint = kBatch;
    return sys->compile(net, co);
  };
  spec.call = [&](const core::CompiledModel& m, core::ExecutionContext& ctx,
                  std::size_t k) { return m.run(batches[k], ctx); };
  spec.reference = [&] {
    return std::function<core::BatchOutput(std::size_t)>(
        [ref = reference_model(net), &batches](std::size_t k) {
          return ref->run(batches[k]);
        });
  };
  return run_closed(spec, cfg);
}

WorkloadResult run_edge_capture(const RunConfig& cfg) {
  util::Rng model_rng(kLenetSeed);
  const nn::Network net = nn::build_lenet(model_rng);
  ClosedLoopSpec spec;
  spec.pool = kEdgePool;
  spec.model_name = "lenet";
  spec.span_name = "edge.capture_and_infer.b8";
  const EdgePool pool = make_edge_pool(cfg.seed);

  const core::LightatorSystem* measured_sys = nullptr;
  spec.setup = [&](std::unique_ptr<core::LightatorSystem>& sys) {
    sys = std::make_unique<core::LightatorSystem>(core::ArchConfig::defaults());
    measured_sys = sys.get();
    core::CompileOptions co;
    co.backend = "gemm";
    co.schedule = precision();
    co.input_shape = {1, 1, 28, 28};
    co.batch_hint = kBatch;
    return sys->compile(net, co);
  };
  spec.call = [&](const core::CompiledModel& m, core::ExecutionContext& ctx,
                  std::size_t k) {
    core::CaptureOptions capture;
    capture.ca = kEdgeCa;
    capture.sensor_noise_seed = pool.noise_seed[k];
    return measured_sys->capture_and_infer(m, pool.scenes[k], ctx, capture);
  };
  spec.reference = [&] {
    // Re-acquire every scene with the same per-frame noise seeds, then run a
    // reference-backend compile on the acquired frames. What acquisition
    // itself yields is pinned by edge_acquire_digest's self-test.
    return std::function<core::BatchOutput(std::size_t)>(
        [ref = reference_model(net), &pool](std::size_t k) {
          const std::vector<tensor::Tensor> acquired =
              acquire_entry(ref->sys, pool, k);
          std::vector<const tensor::Tensor*> ptrs;
          for (const tensor::Tensor& t : acquired) ptrs.push_back(&t);
          return ref->run(ptrs);
        });
  };
  return run_closed(spec, cfg);
}

std::string edge_acquire_digest(std::uint64_t seed) {
  const core::LightatorSystem sys(core::ArchConfig::defaults());
  const EdgePool pool = make_edge_pool(seed);
  Fnv1a h;
  for (std::size_t k = 0; k < kEdgePool; ++k) {
    for (const tensor::Tensor& t : acquire_entry(sys, pool, k)) {
      h.mix(t.data(), t.size() * sizeof(float));
    }
  }
  return h.hex();
}

}  // namespace perfbench
