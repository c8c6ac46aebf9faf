// Layer probes of the traced run: isolated calls into each layer's public
// functions, every call wrapped in a span, and the per-layer metrics derived
// from those spans.
//
//   core     CompiledModel::run at the shapes the workloads use, compile,
//            artifact save/load, arena and resident bytes
//   tensor   the packed GEMM entry point alone on every conv/fc geometry of
//            LeNet and VGG9, with the kernel config each model's plan froze
//   sensor   PixelArray::capture, read_codes, bayer_demosaic and
//            CompressiveAcquisitor::apply per 56x56 frame
//   optics   one MrArm::compute over one 9-MR segment
//   sim      the modelled Lightator cost from LightatorSystem::analyze
#include <algorithm>
#include <cstring>
#include <memory>
#include <string>

#include "core/artifact/artifact.hpp"
#include "core/compressive_acquisitor.hpp"
#include "core/lightator.hpp"
#include "nn/model_desc.hpp"
#include "nn/models.hpp"
#include "optics/arm.hpp"
#include "sensor/bayer.hpp"
#include "sensor/pixel_array.hpp"
#include "tensor/gemm_s16.hpp"
#include "tensor/gemm_s16_packed.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"
#include "workloads/scenes.hpp"

namespace perfbench {

using namespace lightator;

namespace {

constexpr std::size_t kBatch = 8;
/// Keeps the optics probe's results observable so the calls are not elided.
volatile double g_sink = 0.0;

/// Runs `fn` `reps` times, each inside a span named `name` under `parent`;
/// returns those spans' durations in ms.
template <class F>
std::vector<double> timed(SpanBuffer& spans, const char* name, int parent,
                          int reps, F&& fn) {
  for (int r = 0; r < reps; ++r) {
    ScopedSpan s(spans, name, parent, static_cast<std::uint64_t>(r));
    fn();
  }
  return spans.durations_ms(name, parent);
}

std::vector<tensor::Tensor> seeded_frames(util::Rng& rng, std::size_t n,
                                          std::size_t c, std::size_t h,
                                          std::size_t w) {
  std::vector<tensor::Tensor> out;
  for (std::size_t i = 0; i < n; ++i) {
    tensor::Tensor x({1, c, h, w});
    x.fill_uniform(rng, 0.0f, 1.0f);
    out.push_back(std::move(x));
  }
  return out;
}

tensor::Tensor stack(const std::vector<tensor::Tensor>& frames) {
  const tensor::Shape& s = frames.front().shape();
  tensor::Tensor out({frames.size(), s[1], s[2], s[3]});
  const std::size_t per = frames.front().size();
  for (std::size_t i = 0; i < frames.size(); ++i) {
    std::copy(frames[i].data(), frames[i].data() + per, out.data() + i * per);
  }
  return out;
}

/// One weighted step's GEMM as the gemm backend executes it in a batch-8
/// forward (conv: one [out_ch x pixels x kdim] GEMM per item; fc: one
/// [batch x out x in] GEMM), plus the arm calls the physical backend makes
/// for the same step per frame.
struct LayerGemm {
  std::string name;
  std::size_t m = 0, n = 0, k = 0, seg = 0;
  bool wide = false;
  std::size_t calls_per_batch = 1;
  std::size_t arm_calls_per_frame = 0;
  tensor::KernelConfig config;
};

std::vector<LayerGemm> layer_gemms(const core::CompiledModel& model,
                                   std::size_t h, std::size_t w,
                                   std::size_t mrs_per_arm) {
  const auto pool_dims = [&](std::size_t kernel, std::size_t stride) {
    h = (h - kernel) / stride + 1;
    w = (w - kernel) / stride + 1;
  };
  std::vector<LayerGemm> out;
  std::size_t convs = 0, fcs = 0;
  for (const core::CompiledStep& step : core::compiled_model_plan(model).steps) {
    LayerGemm g;
    if (step.kind == nn::LayerKind::kConv) {
      g.name = "conv" + std::to_string(++convs);
      const std::size_t oh = step.conv.out_dim(h), ow = step.conv.out_dim(w);
      g.m = step.conv.out_channels;
      g.n = oh * ow;
      g.k = step.conv.weights_per_filter();
      g.calls_per_batch = kBatch;
      h = oh;
      w = ow;
      if (step.epilogue.pool != core::PoolKind::kNone) {
        pool_dims(step.epilogue.pool_kernel, step.epilogue.pool_stride);
      }
    } else if (step.kind == nn::LayerKind::kLinear) {
      g.name = "fc" + std::to_string(++fcs);
      g.m = kBatch;
      g.n = step.fc_out;
      g.k = step.fc_in;
    } else {
      if (step.kind == nn::LayerKind::kMaxPool ||
          step.kind == nn::LayerKind::kAvgPool) {
        pool_dims(step.pool_kernel, step.pool_stride);
      }
      continue;
    }
    g.seg = tensor::effective_segment(mrs_per_arm, g.k);
    g.wide = !tensor::gemm_s16_int32_safe(step.weights.max_level(),
                                          (1 << step.abits) - 1, g.seg);
    const std::size_t segments = (g.k + mrs_per_arm - 1) / mrs_per_arm;
    g.arm_calls_per_frame = step.kind == nn::LayerKind::kConv
                                ? g.m * segments * g.n
                                : g.n * segments;
    g.config = model.kernel_config(step.weighted_index);
    out.push_back(std::move(g));
  }
  return out;
}

/// Deterministic int16 fill in [-mag, mag] with max |v| == mag, so the
/// packed GEMM picks the same narrow/wide accumulation as the layer.
void fill_levels(std::vector<std::int16_t>& v, std::int16_t mag,
                 util::Rng& rng) {
  for (std::int16_t& x : v) {
    x = static_cast<std::int16_t>(
        static_cast<std::int64_t>(rng.uniform_index(2u * mag + 1u)) - mag);
  }
  if (!v.empty()) v[0] = mag;
}

/// Times the packed GEMM of every layer alone; returns the median ms per
/// call, and sets tensor.gemm_gmacs.<model>.<layer>.
std::vector<double> probe_gemms(const std::vector<LayerGemm>& layers,
                                const std::string& model, SpanBuffer& spans,
                                util::Rng& rng, Metrics& m) {
  const int parent = spans.begin("probe.tensor.gemm");
  std::vector<double> ms_per_call;
  for (const LayerGemm& g : layers) {
    const std::int16_t mag = g.wide ? 32767 : 15;
    std::vector<std::int16_t> a(g.m * g.k), b(g.k * g.n);
    fill_levels(a, mag, rng);
    fill_levels(b, mag, rng);
    const tensor::PackedA pa = tensor::pack_a_s16(a.data(), g.m, g.k, g.k, g.seg);
    const tensor::PackedB pb = tensor::pack_b_s16(b.data(), g.k, g.n, g.n, g.seg);
    std::vector<double> c(g.m * g.n);
    tensor::gemm_s16_packed(pa, pb, c.data(), g.n, g.config);  // warm-up
    const int layer_span = spans.begin("tensor.gemm.layer", parent);
    // Enough calls for ~20 ms of work (at least 5).
    const double macs = static_cast<double>(g.m * g.n * g.k);
    const int reps = std::clamp(static_cast<int>(20e-3 / (macs / 5e9)), 5, 400);
    const std::vector<double> d =
        timed(spans, "tensor.gemm", layer_span, reps, [&] {
          tensor::gemm_s16_packed(pa, pb, c.data(), g.n, g.config);
        });
    spans.end(layer_span);
    const double t = median(d);
    ms_per_call.push_back(t);
    m.set("tensor.gemm_gmacs." + model + "." + g.name,
          macs / (t * 1e-3) / 1e9, "GMAC/s");
  }
  spans.end(parent);
  return ms_per_call;
}

double gemm_seconds_per_batch(const std::vector<LayerGemm>& layers,
                              const std::vector<double>& ms_per_call) {
  double s = 0.0;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    s += ms_per_call[i] * 1e-3 * static_cast<double>(layers[i].calls_per_batch);
  }
  return s;
}

optics::ArmParams arm_params(const core::ArchConfig& config, int weight_bits) {
  optics::ArmParams p;
  p.num_cells = config.geometry.mrs_per_arm;
  p.weight_bits = weight_bits;
  p.activation_levels = config.vcsel.levels;
  p.ring = config.ring;
  p.vcsel = config.vcsel;
  p.detector = config.detector;
  return p;
}

void probe_core_and_tensor(std::uint64_t seed, SpanBuffer& spans, Metrics& m,
                           std::uint64_t& checked, std::uint64_t& mismatched) {
  const core::ArchConfig arch = core::ArchConfig::defaults();
  const core::LightatorSystem sys(arch);
  const nn::PrecisionSchedule schedule = nn::PrecisionSchedule::uniform(4);
  util::Rng lenet_rng(21), vgg_rng(23), rng(seed);
  const nn::Network lenet = nn::build_lenet(lenet_rng);
  const nn::Network vgg9 = nn::build_vgg9(vgg_rng);
  util::ThreadPool pool1(1), pool2(2);

  // Compile, as the workloads compile: serving LeNet (no input shape, so
  // only fc geometries are tuned), VGG9 and physical LeNet with shapes.
  core::CompileOptions lenet_co;
  lenet_co.schedule = schedule;
  core::CompileOptions vgg_co;
  vgg_co.schedule = schedule;
  vgg_co.input_shape = {1, 3, 32, 32};
  vgg_co.batch_hint = kBatch;
  core::CompileOptions phys_co;
  phys_co.backend = "physical";
  phys_co.schedule = schedule;
  phys_co.input_shape = {1, 1, 28, 28};
  phys_co.batch_hint = kBatch;
  core::CompiledModel lenet_m, vgg_m, phys_m;
  {
    const int p = spans.begin("probe.core.compile");
    m.set("core.compile_ms.lenet",
          median(timed(spans, "core.compile.lenet", p, 5,
                       [&] { lenet_m = sys.compile(lenet, lenet_co); })),
          "ms");
    m.set("core.compile_ms.vgg9",
          median(timed(spans, "core.compile.vgg9", p, 3,
                       [&] { vgg_m = sys.compile(vgg9, vgg_co); })),
          "ms");
    m.set("core.compile_ms.physical",
          median(timed(spans, "core.compile.physical", p, 5,
                       [&] { phys_m = sys.compile(lenet, phys_co); })),
          "ms");
    spans.end(p);
  }

  // Artifact round trip of the VGG9 model through an in-memory blob: the
  // (de)serializer and repack-on-load work without the file system's noise.
  {
    const int p = spans.begin("probe.core.artifact");
    std::vector<std::uint8_t> blob;
    m.set("core.artifact_save_ms.vgg9",
          median(timed(spans, "core.artifact.save", p, 3,
                       [&] { blob = core::serialize_artifact(vgg_m); })),
          "ms");
    core::CompiledModel loaded;
    m.set("core.artifact_load_ms.vgg9",
          median(timed(spans, "core.artifact.load", p, 3, [&] {
            loaded = core::deserialize_artifact(blob, sys);
          })),
          "ms");
    spans.end(p);
  }

  const std::vector<tensor::Tensor> lenet_frames =
      seeded_frames(rng, 16, 1, 28, 28);
  const std::vector<tensor::Tensor> vgg_frames = seeded_frames(rng, kBatch, 3, 32, 32);
  const tensor::Tensor lenet_b8 =
      stack({lenet_frames.begin(), lenet_frames.begin() + kBatch});
  const tensor::Tensor vgg_b8 = stack(vgg_frames);

  // LeNet as a serving replica runs it: 1 thread, per-item scale, batch 1
  // and a gathered batch of 16.
  {
    const int p = spans.begin("probe.core.lenet");
    core::ExecutionContext ctx;
    ctx.pool = &pool1;
    ctx.per_item_act_scale = true;
    lenet_m.run(lenet_frames[0], ctx);
    std::size_t i = 0;
    m.set("core.run_us.lenet.b1",
          1e3 * median(timed(spans, "core.run.b1", p, 300, [&] {
            lenet_m.run(lenet_frames[i++ % lenet_frames.size()], ctx);
          })),
          "us");
    std::vector<const tensor::Tensor*> gather;
    for (const tensor::Tensor& f : lenet_frames) gather.push_back(&f);
    lenet_m.run(gather, ctx);
    m.set("core.run_us_per_item.lenet.b16",
          1e3 / 16.0 *
              median(timed(spans, "core.run.b16", p, 100,
                           [&] { lenet_m.run(gather, ctx); })),
          "us");
    m.set("core.arena_peak_bytes.lenet",
          static_cast<double>(ctx.arena().plan().total_bytes()), "bytes");
    m.set("core.resident_bytes.lenet",
          static_cast<double>(lenet_m.resident_bytes()), "bytes");
    spans.end(p);
  }

  // Workload-shaped batch-8 forwards on the 2-thread pool.
  {
    const int p = spans.begin("probe.core.batch8");
    core::ExecutionContext ctx;
    ctx.pool = &pool2;
    vgg_m.run(vgg_b8, ctx);
    m.set("core.run_ms.vgg9.b8",
          median(timed(spans, "core.run.vgg9.b8", p, 5,
                       [&] { vgg_m.run(vgg_b8, ctx); })),
          "ms");
    m.set("core.arena_peak_bytes.vgg9",
          static_cast<double>(ctx.arena().plan().total_bytes()), "bytes");
    m.set("core.resident_bytes.vgg9",
          static_cast<double>(vgg_m.resident_bytes()), "bytes");
    // Physical LeNet with noise: per-item noise ids make the forward restart
    // its noise streams, so the output is a pure function of the input.
    const auto noisy_ctx = [&](core::ExecutionContext& c) {
      c.pool = &pool2;
      c.noise_seed = 0x0b5e7ull;
      for (std::size_t i = 0; i < kBatch; ++i) c.noise_stream_ids.push_back(i);
    };
    core::ExecutionContext pctx;
    noisy_ctx(pctx);
    core::BatchOutput phys_out;
    m.set("core.run_ms.physical.b8",
          median(timed(spans, "core.run.physical.b8", p, 3,
                       [&] { phys_out = phys_m.run(lenet_b8, pctx); })),
          "ms");
    m.set("core.resident_bytes.physical",
          static_cast<double>(phys_m.resident_bytes()), "bytes");
    spans.end(p);

    // The physical result must be seeded-noise-identical to a compile with
    // every pass and the prepacking off.
    core::CompileOptions plain = phys_co;
    plain.prepack = false;
    plain.passes = core::PassOptions{false, false, false, false};
    core::ExecutionContext rctx;
    noisy_ctx(rctx);
    const core::BatchOutput want = sys.compile(lenet, plain).run(lenet_b8, rctx);
    const tensor::Tensor& a = phys_out.logits();
    const tensor::Tensor& b = want.logits();
    const bool same =
        a.size() == b.size() &&
        std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
    checked += kBatch;
    mismatched += same ? 0 : kBatch;
  }

  // Packed GEMM alone per layer, and its share of a single-threaded batch-8
  // forward (single-threaded so the isolated serial GEMM time and the run
  // time measure the same core).
  const std::size_t mrs = arch.geometry.mrs_per_arm;
  struct Share {
    const char* model;
    const core::CompiledModel* compiled;
    std::vector<LayerGemm> layers;
    const tensor::Tensor* batch;
    int reps;
  };
  Share shares[] = {
      {"lenet", &lenet_m, layer_gemms(lenet_m, 28, 28, mrs), &lenet_b8, 50},
      {"vgg9", &vgg_m, layer_gemms(vgg_m, 32, 32, mrs), &vgg_b8, 3}};
  for (const Share& s : shares) {
    const std::vector<double> per_call =
        probe_gemms(s.layers, s.model, spans, rng, m);
    core::ExecutionContext ctx;
    ctx.pool = &pool1;
    s.compiled->run(*s.batch, ctx);
    const int p = spans.begin("probe.tensor.share");
    const double run_s =
        1e-3 * median(timed(spans, "core.run.serial.b8", p, s.reps,
                            [&] { s.compiled->run(*s.batch, ctx); }));
    spans.end(p);
    m.set(std::string("tensor.gemm_share.") + s.model,
          gemm_seconds_per_batch(s.layers, per_call) / run_s, "share");
  }

  std::size_t arm_calls = 0;
  for (const LayerGemm& g : layer_gemms(phys_m, 28, 28, mrs)) {
    arm_calls += g.arm_calls_per_frame;
  }
  m.set("optics.arm_calls_per_frame", static_cast<double>(arm_calls), "count");
}

void probe_sensor(std::uint64_t seed, SpanBuffer& spans, Metrics& m) {
  const core::ArchConfig arch = core::ArchConfig::defaults();
  const core::LightatorSystem sys(arch);
  const core::CaOptions ca{2, true, 4};
  const core::CompressiveAcquisitor acquisitor(ca, arch);
  util::Rng scene_rng(seed ^ 0x5ce7e5ull), noise(seed ^ 0x0153ull);
  std::vector<sensor::Image> scenes;
  for (std::size_t i = 0; i < 16; ++i) {
    scenes.push_back(workloads::make_blob_scene(56, 56, scene_rng));
  }

  // The acquisition stages one by one, as LightatorSystem::acquire runs them.
  const int p = spans.begin("probe.sensor");
  sensor::PixelArrayParams params = arch.sensor;
  params.rows = 56;
  params.cols = 56;
  for (int rep = 0; rep < 4; ++rep) {
    for (const sensor::Image& scene : scenes) {
      const int frame = spans.begin("sensor.acquire", p);
      sensor::PixelArray array(params);
      {
        ScopedSpan s(spans, "sensor.capture", frame);
        array.capture(scene, &noise);
      }
      sensor::CodeFrame codes;
      {
        ScopedSpan s(spans, "sensor.readout", frame);
        codes = array.read_codes(&noise);
      }
      sensor::Image raw(codes.rows, codes.cols, 1);
      for (std::size_t y = 0; y < codes.rows; ++y) {
        for (std::size_t x = 0; x < codes.cols; ++x) {
          raw.at(y, x) = static_cast<float>(codes.at(y, x)) / 15.0f;
        }
      }
      sensor::Image rgb;
      {
        ScopedSpan s(spans, "sensor.demosaic", frame);
        rgb = sensor::bayer_demosaic(raw);
      }
      {
        ScopedSpan s(spans, "ca.apply", frame);
        const sensor::Image out = acquisitor.apply(rgb);
      }
      spans.end(frame);
    }
  }
  spans.end(p);
  const auto median_us = [&](const char* name) {
    return 1e3 * median(spans.durations_ms(name));
  };
  m.set("sensor.capture_us", median_us("sensor.capture"), "us");
  m.set("sensor.readout_us", median_us("sensor.readout"), "us");
  m.set("sensor.demosaic_us", median_us("sensor.demosaic"), "us");
  m.set("ca.apply_us", median_us("ca.apply"), "us");

  // Acquisition's share of the near-sensor pipeline, single-threaded:
  // LightatorSystem::acquire over a batch vs capture_and_infer on it.
  util::Rng lenet_rng(21);
  const nn::Network lenet = nn::build_lenet(lenet_rng);
  core::CompileOptions co;
  co.schedule = nn::PrecisionSchedule::uniform(4);
  co.input_shape = {1, 1, 28, 28};
  co.batch_hint = kBatch;
  const core::CompiledModel model = sys.compile(lenet, co);
  util::ThreadPool pool1(1);
  core::ExecutionContext ctx;
  ctx.pool = &pool1;
  const std::vector<sensor::Image> batch(scenes.begin(), scenes.begin() + kBatch);
  core::CaptureOptions capture;
  capture.ca = ca;
  capture.sensor_noise_seed = seed | 1u;
  sys.capture_and_infer(model, batch, ctx, capture);
  const int e = spans.begin("probe.edge");
  const double acquire_ms = median(timed(spans, "core.acquire.b8", e, 10, [&] {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      util::Rng n(core::mix_seed(capture.sensor_noise_seed, 0, i));
      sys.acquire(batch[i], ca, &n);
    }
  }));
  const double pipeline_ms =
      median(timed(spans, "edge.capture_and_infer.b8", e, 10,
                   [&] { sys.capture_and_infer(model, batch, ctx, capture); }));
  spans.end(e);
  m.set("edge.acquire_share", acquire_ms / pipeline_ms, "share");
}

void probe_optics(std::uint64_t seed, SpanBuffer& spans, Metrics& m) {
  const core::ArchConfig arch = core::ArchConfig::defaults();
  optics::MrArm arm(arm_params(arch, 4));
  util::Rng rng(seed ^ 0x0a11ull);
  const std::size_t cells = arm.num_cells();
  std::vector<double> w(cells);
  for (double& x : w) x = rng.uniform(-1.0, 1.0);
  arm.set_weights(w);
  constexpr std::size_t kVectors = 256;
  std::vector<int> codes(kVectors * cells);
  for (int& c : codes) {
    c = static_cast<int>(rng.uniform_index(
        static_cast<std::uint64_t>(arch.vcsel.levels) + 1));
  }
  const int p = spans.begin("probe.optics");
  double sink = 0.0;
  const auto chunk = [&](bool noisy) {
    for (std::size_t v = 0; v < kVectors; ++v) {
      const std::span<const int> c(codes.data() + v * cells, cells);
      sink += noisy ? arm.compute_noisy(c, rng) : arm.compute(c);
    }
  };
  chunk(false);
  const double ms = median(timed(spans, "optics.arm_compute.x256", p, 40,
                                 [&] { chunk(false); }));
  const double noisy_ms = median(timed(spans, "optics.arm_compute_noisy.x256",
                                       p, 40, [&] { chunk(true); }));
  spans.end(p);
  m.set("optics.arm_compute_ns", ms * 1e6 / kVectors, "ns");
  m.set("optics.arm_compute_noisy_ns", noisy_ms * 1e6 / kVectors, "ns");
  g_sink = sink;
}

void probe_sim(Metrics& m) {
  const core::LightatorSystem sys(core::ArchConfig::defaults());
  const nn::PrecisionSchedule schedule = nn::PrecisionSchedule::uniform(4);
  core::AnalyzeOptions ca;
  ca.ca_frontend = core::CaOptions{2, true, 4};
  ca.ca_in_h = 56;
  ca.ca_in_w = 56;
  const core::SystemReport lenet = sys.analyze(nn::lenet_desc(), schedule, ca);
  const core::SystemReport vgg = sys.analyze(nn::vgg9_desc(), schedule);
  for (const auto& [name, r] :
       {std::pair<const char*, const core::SystemReport*>{"lenet_ca", &lenet},
        {"vgg9", &vgg}}) {
    m.set(std::string("sim.kfps_per_w.") + name, r->kfps_per_watt, "kfps/W");
    m.set(std::string("sim.energy_uj_per_frame.") + name,
          r->energy_per_frame * 1e6, "uJ");
    m.set(std::string("sim.latency_us.") + name, r->latency * 1e6, "us");
  }
}

}  // namespace

ProbeResult run_layer_probes(std::uint64_t seed, SpanBuffer& spans) {
  ProbeResult r;
  probe_core_and_tensor(seed, spans, r.metrics, r.checked, r.mismatched);
  probe_sensor(seed, spans, r.metrics);
  probe_optics(seed, spans, r.metrics);
  probe_sim(r.metrics);
  return r;
}

}  // namespace perfbench
