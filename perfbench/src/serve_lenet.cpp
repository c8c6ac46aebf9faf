// serve_lenet: open-loop Poisson arrivals of 28x28 LeNet frames into one
// serve::InferenceServer, at three FIXED absolute rates so that a parent and
// a child commit are offered exactly the same load.
//
// The load generator is the benchmark's own: serve::make_arrival_schedule fixes the
// schedule, and the generator thread calls InferenceServer::submit directly
// at each request's due time. Latency runs from the DUE time (submit
// lateness plus InferResult::total_seconds), so a stalled generator or a
// slow submit is charged to the requests it delayed. While it waits for the
// next due time the generator takes finished results off the front of its
// pending list, in order, so result buffers are released as they complete,
// as a real client would. The process runs three busy threads (generator and
// two replicas) on four CPUs, and the generator has a CPU of its own (see
// GeneratorCpu), so it is not preempted by its own process.
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <exception>
#include <future>
#include <memory>
#include <sstream>

#include "core/lightator.hpp"
#include "nn/models.hpp"
#include "serve/load_gen.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace lightator;

namespace {

constexpr std::size_t kPoolInputs = 64;
constexpr std::uint64_t kModelSeed = 21;
/// A request counts toward goodput when it completes OK within this limit
/// from its due time.
constexpr double kSloMs = 10.0;
/// A phase window whose generator ran later than this at p99 did not offer
/// its stated load on time. A phase is marked invalid in the run record when
/// fewer than a quarter of its cycles were on time, since its figures (lower
/// quartiles over cycles) then come from late cycles.
constexpr double kLateLimitUs = 2000.0;
/// One cycle runs every phase once for its share of this many seconds; a
/// run is a whole number of cycles, so a slow stretch of the host hits all
/// phases alike. Each figure of a phase is the quiet_figure over cycles of
/// the figure within the cycle, so a host stall or a slow stretch of the
/// host moves the cycles it covers, not the run's figure.
constexpr double kCycleSeconds = 1.0;

/// The serving phases' fixed offered rates and their share of a cycle.
struct PhaseSpec {
  const char* name;
  double rate_rps;
  double share;
};

const std::vector<PhaseSpec>& serve_phases() {
  static const std::vector<PhaseSpec> phases = {
      {"low", 1000.0, 0.25}, {"mid", 4000.0, 0.35}, {"over", 8000.0, 0.40}};
  return phases;
}

const std::vector<serve::ClassMix>& class_mix() {
  using RC = serve::sched::RequestClass;
  static const std::vector<serve::ClassMix> mix = {
      {RC::kBestEffort, 0.3, 0.0},
      {RC::kStandard, 0.4, 200.0},
      {RC::kCritical, 0.3, 100.0}};
  return mix;
}

serve::ServerOptions server_options() {
  serve::ServerOptions so;
  so.backend = "gemm";
  so.replicas = 2;
  so.threads_per_replica = 1;
  so.queue_capacity = 32;
  so.batch.max_batch = 16;
  so.batch.max_wait_us = 500.0;
  so.sched.admission.shed_depth = {0.25, 0.6, 1.0};
  return so;
}

double share(std::size_t n, std::size_t of) {
  return of == 0 ? 0.0 : static_cast<double>(n) / static_cast<double>(of);
}

std::size_t cycles(double seconds) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(seconds / kCycleSeconds)));
}

/// Arrivals of one phase window: Poisson at the phase's fixed rate for its
/// share of a cycle, with the class mix.
std::vector<serve::Arrival> window_schedule(std::uint64_t seed,
                                            std::size_t phase,
                                            std::size_t cycle,
                                            std::size_t num_inputs) {
  const PhaseSpec& spec = serve_phases()[phase];
  serve::OpenLoopOptions ol;
  ol.rate_rps = spec.rate_rps;
  ol.requests = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(spec.rate_rps * spec.share *
                                               kCycleSeconds)));
  ol.seed = core::mix_seed(seed, /*stream=*/0x5e7e,
                           cycle * serve_phases().size() + phase);
  ol.shape = serve::TrafficShape::kPoisson;
  ol.classes = class_mix();
  return serve::make_arrival_schedule(ol, num_inputs);
}

/// Gives the load generator, the calling thread, a CPU of its own while the
/// guard lives. On construction the thread leaves the last CPU it may run
/// on (the first usually takes more of the interrupts), so the threads the
/// server starts afterwards inherit the others; generator() then moves the
/// thread onto that last CPU alone. Without this the kernel may wake a
/// replica onto the generator's CPU (the generator is the thread that wakes
/// it), stalling the generator for milliseconds. The destructor restores the
/// thread's CPUs. It needs four CPUs (generator and two replicas busy, one
/// to spare) and does nothing with fewer.
class GeneratorCpu {
 public:
  GeneratorCpu() {
    CPU_ZERO(&saved_);
    if (pthread_getaffinity_np(pthread_self(), sizeof saved_, &saved_) != 0 ||
        CPU_COUNT(&saved_) < 4) {
      return;
    }
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &saved_)) cpu_ = c;
    }
    cpu_set_t others = saved_;
    CPU_CLR(cpu_, &others);
    active_ =
        pthread_setaffinity_np(pthread_self(), sizeof others, &others) == 0;
  }
  ~GeneratorCpu() {
    if (active_) {
      pthread_setaffinity_np(pthread_self(), sizeof saved_, &saved_);
    }
  }
  GeneratorCpu(const GeneratorCpu&) = delete;
  GeneratorCpu& operator=(const GeneratorCpu&) = delete;

  void generator() const {
    if (!active_) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu_, &one);
    pthread_setaffinity_np(pthread_self(), sizeof one, &one);
  }
  /// The generator's CPU, or -1 when the threads are not placed.
  int cpu() const { return active_ ? cpu_ : -1; }

 private:
  cpu_set_t saved_;
  int cpu_ = 0;
  bool active_ = false;
};

/// kError: the server failed the request (its batch's run threw).
enum class Outcome : std::uint8_t {
  kOk,
  kShed,
  kRejected,
  kExpired,
  kError,
  kWrong
};

/// Per-request record: lateness and time inside submit, then the outcome
/// and, for a request served OK, its latency and where it was spent. Shed,
/// rejected and expired requests have no latency: they show in the phase's
/// miss shares and, in the overload phase, in goodput.
struct RequestRecord {
  Clock::time_point due;
  double late_s = 0.0;
  double submit_s = 0.0;
  Outcome outcome = Outcome::kOk;
  double latency_ms = 0.0;
  double queue_ms = 0.0;
  double service_ms = 0.0;
  std::size_t batch_size = 0;
};

struct PhaseOutcome {
  std::vector<RequestRecord> records;
  double nominal_s = 0.0;
};

PhaseOutcome drive_phase(serve::InferenceServer& server,
                         const std::vector<tensor::Tensor>& inputs,
                         const std::vector<tensor::Tensor>& truth,
                         const std::vector<serve::Arrival>& schedule,
                         double rate_rps, std::uint64_t first_id,
                         SpanBuffer* spans, int phase_span) {
  PhaseOutcome out;
  out.records.resize(schedule.size());
  out.nominal_s = static_cast<double>(schedule.size()) / rate_rps;

  // Accepted requests whose result has not been taken yet, in submit order.
  std::deque<std::pair<std::size_t, std::future<serve::InferResult>>> pending;
  const auto collect = [&](std::size_t index,
                           std::future<serve::InferResult>& result) {
    RequestRecord& rec = out.records[index];
    serve::InferResult r;
    try {
      r = result.get();
    } catch (const std::exception&) {
      rec.outcome = Outcome::kError;
      return;
    }
    if (!r.ok()) {
      rec.outcome = Outcome::kExpired;
      return;
    }
    const tensor::Tensor& want = truth[schedule[index].input_index];
    const std::span<const float> got = r.output();
    if (got.size() != want.size() ||
        std::memcmp(got.data(), want.data(), want.size() * sizeof(float)) !=
            0) {
      rec.outcome = Outcome::kWrong;
      return;
    }
    rec.latency_ms = (rec.late_s + r.total_seconds) * 1e3;
    rec.queue_ms = r.queue_seconds * 1e3;
    rec.service_ms = (r.total_seconds - r.queue_seconds) * 1e3;
    rec.batch_size = r.batch_size;
    if (spans != nullptr && spans->enabled()) {
      const std::uint64_t id = first_id + index;
      const auto secs = [](double s) {
        return std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(s));
      };
      const Clock::time_point admitted = rec.due + secs(rec.late_s);
      const int req = spans->record("serve.request", rec.due,
                                    rec.due + secs(rec.latency_ms * 1e-3),
                                    phase_span, id);
      spans->record("serve.queue", admitted, admitted + secs(r.queue_seconds),
                    req, id);
      spans->record("serve.service", admitted + secs(r.queue_seconds),
                    admitted + secs(r.total_seconds), req, id);
    }
  };
  const auto front_ready = [&pending] {
    return !pending.empty() &&
           pending.front().second.wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready;
  };

  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const serve::Arrival& a = schedule[i];
    RequestRecord& rec = out.records[i];
    tensor::Tensor x = inputs[a.input_index];  // the client's own copy
    rec.due = t0 + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(a.at_seconds));
    // Spin, not sleep: a sleeping generator is woken late whenever the host
    // is slow to reschedule an idle virtual CPU (milliseconds on a shared
    // host), and that lateness would be charged to the requests as latency.
    while (Clock::now() < rec.due) {
      if (front_ready()) {
        collect(pending.front().first, pending.front().second);
        pending.pop_front();
      }
    }
    const Clock::time_point call = Clock::now();
    serve::SubmitTicket ticket = server.submit(
        std::move(x), first_id + i,
        serve::sched::SubmitOptions{a.klass, a.deadline_ms});
    const Clock::time_point ret = Clock::now();
    rec.late_s = seconds_between(rec.due, call);
    rec.submit_s = seconds_between(call, ret);
    if (spans != nullptr) {
      spans->record("serve.submit", call, ret, phase_span, first_id + i);
    }
    if (ticket.status == serve::SubmitStatus::kAccepted) {
      pending.emplace_back(i, std::move(ticket.result));
    } else {
      rec.outcome = ticket.status == serve::SubmitStatus::kShed
                        ? Outcome::kShed
                        : Outcome::kRejected;
    }
  }
  for (auto& [index, result] : pending) collect(index, result);
  return out;
}

}  // namespace

std::string serve_schedule_digest(std::uint64_t seed, double seconds) {
  Fnv1a h;
  std::size_t count = 0;
  for (std::size_t c = 0; c < cycles(seconds); ++c) {
    for (std::size_t p = 0; p < serve_phases().size(); ++p) {
      for (const serve::Arrival& a : window_schedule(seed, p, c, kPoolInputs)) {
        h.mix(&a.at_seconds, sizeof a.at_seconds);
        h.mix(&a.input_index, sizeof a.input_index);
        h.mix(&a.klass, sizeof a.klass);
        h.mix(&a.deadline_ms, sizeof a.deadline_ms);
        ++count;
      }
    }
  }
  return std::to_string(count) + ":" + h.hex();
}

WorkloadResult run_serve_lenet(const RunConfig& cfg) {
  WorkloadResult res;
  util::Rng model_rng(kModelSeed);
  const nn::Network net = nn::build_lenet(model_rng);
  const nn::PrecisionSchedule schedule = nn::PrecisionSchedule::uniform(4);

  util::Rng input_rng(cfg.seed);
  std::vector<tensor::Tensor> inputs;
  for (std::size_t i = 0; i < kPoolInputs; ++i) {
    tensor::Tensor x({1, 1, 28, 28});
    x.fill_uniform(input_rng, 0.0f, 1.0f);
    inputs.push_back(std::move(x));
  }

  // Reference truth per distinct input: a reference-backend compile, run
  // batch-of-1 (the server's per-item activation scale makes every served
  // request equal its batch-of-1 result).
  std::vector<tensor::Tensor> truth(inputs.size());
  {
    const core::LightatorSystem ref_sys(core::ArchConfig::defaults());
    core::CompileOptions co;
    co.backend = "reference";
    co.schedule = schedule;
    const core::CompiledModel ref = ref_sys.compile(net, co);
    core::ExecutionContext ctx;
    util::ThreadPool pool(1);
    ctx.pool = &pool;
    ctx.per_item_act_scale = true;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      truth[i] = ref.run(inputs[i], ctx).take();
    }
  }

  // Set-up: system construction through a warm server (compile, replicas,
  // their contexts and pools). Repeated; the last server is the one served.
  const GeneratorCpu placement;
  std::vector<double> setup_s;
  std::unique_ptr<core::LightatorSystem> sys;
  std::unique_ptr<serve::InferenceServer> server;
  while (repeat_setup(setup_s, cfg.setup_reps)) {
    server.reset();
    sys.reset();
    const Clock::time_point t0 = Clock::now();
    sys = std::make_unique<core::LightatorSystem>(core::ArchConfig::defaults());
    server = std::make_unique<serve::InferenceServer>(*sys, net, schedule,
                                                      server_options());
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  placement.generator();
  res.info.emplace_back("generator_cpu", std::to_string(placement.cpu()));

  // Warm-up at the low rate, not measured: first-touch of the replica
  // arenas and the admission estimator's EWMAs.
  drive_phase(*server, inputs, truth,
              window_schedule(cfg.seed ^ 0x77u, 0, 0, kPoolInputs),
              serve_phases()[0].rate_rps, 1u << 30, nullptr, SpanBuffer::kNone);

  // Every cycle counts. Latency runs from the due time, so a cycle in which
  // the host stalled the generator charges that stall to the requests it
  // delayed, as it would requests arriving from outside; a phase's figures
  // are quiet_figures over cycles, so a stall in a few cycles does not move
  // them.
  // loadgen.late_us.* and the run record show how late the generator ran.
  const std::size_t num_phases = serve_phases().size();
  const std::size_t num_cycles = cycles(cfg.seconds);
  std::vector<std::vector<PhaseOutcome>> outcomes(num_cycles);
  std::uint64_t next_id = 1;
  for (std::size_t c = 0; c < num_cycles; ++c) {
    for (std::size_t p = 0; p < num_phases; ++p) {
      const PhaseSpec& spec = serve_phases()[p];
      const std::vector<serve::Arrival> sched =
          window_schedule(cfg.seed, p, c, kPoolInputs);
      const int span = cfg.spans != nullptr ? cfg.spans->begin(spec.name)
                                            : SpanBuffer::kNone;
      outcomes[c].push_back(drive_phase(*server, inputs, truth, sched,
                                        spec.rate_rps, next_id, cfg.spans,
                                        span));
      if (cfg.spans != nullptr) cfg.spans->end(span);
      next_id += sched.size();
      // Shed, rejected and expired requests are the server's admission
      // control at work, not failures; a request the server failed or
      // answered wrongly is.
      for (const RequestRecord& r : outcomes[c].back().records) {
        const bool bad =
            r.outcome == Outcome::kError || r.outcome == Outcome::kWrong;
        res.attempted += 1;
        res.failed += bad;
        res.correct = res.correct && !bad;
      }
    }
  }
  // Read before the figures are worked out, whose scratch would count.
  const double rss_mb = peak_rss_mb();

  std::vector<double> submit_us_all;
  for (std::size_t p = 0; p < num_phases; ++p) {
    const PhaseSpec& spec = serve_phases()[p];
    std::vector<double> late_us, queue, service;
    std::vector<double> cycle_p50, cycle_p99, cycle_goodput, cycle_rate;
    std::size_t offered = 0, ok = 0, shed = 0, rejected = 0, expired = 0,
                errors = 0, wrong = 0, late_cycles = 0;
    double inv_batch = 0.0;
    for (std::size_t c = 0; c < num_cycles; ++c) {
      const PhaseOutcome& phase = outcomes[c][p];
      offered += phase.records.size();
      std::vector<double> cycle_latency, cycle_late_us;
      std::size_t cycle_ok = 0, within_slo = 0;
      for (const RequestRecord& r : phase.records) {
        late_us.push_back(r.late_s * 1e6);
        cycle_late_us.push_back(r.late_s * 1e6);
        submit_us_all.push_back(r.submit_s * 1e6);
        switch (r.outcome) {
          case Outcome::kOk:
            ++cycle_ok;
            cycle_latency.push_back(r.latency_ms);
            queue.push_back(r.queue_ms);
            service.push_back(r.service_ms);
            inv_batch += 1.0 / static_cast<double>(std::max<std::size_t>(
                                   1, r.batch_size));
            if (r.latency_ms <= kSloMs) ++within_slo;
            break;
          case Outcome::kShed: ++shed; break;
          case Outcome::kRejected: ++rejected; break;
          case Outcome::kExpired: ++expired; break;
          case Outcome::kError: ++errors; break;
          case Outcome::kWrong: ++wrong; break;
        }
      }
      ok += cycle_ok;
      late_cycles += quantile(cycle_late_us, 0.99) > kLateLimitUs;
      if (!cycle_latency.empty()) {
        cycle_p50.push_back(quantile(cycle_latency, 0.50));
        cycle_p99.push_back(quantile(cycle_latency, 0.99));
      }
      cycle_goodput.push_back(static_cast<double>(within_slo) /
                              phase.nominal_s);
      cycle_rate.push_back(static_cast<double>(cycle_ok) / phase.nominal_s);
    }
    const std::string ph = spec.name;
    const double late_p99 = quantile(late_us, 0.99);
    if (ph == "over") {
      res.metrics.set("goodput_rps.over",
                      quiet_figure(cycle_goodput, Better::kHigher), "1/s");
      res.metrics.set("frames_per_s", quiet_figure(cycle_rate, Better::kHigher),
                      "1/s");
    } else {
      res.metrics.set("p50_ms." + ph, quiet_figure(cycle_p50, Better::kLower),
                      "ms");
      res.layer.set("serve.latency_ms.p99." + ph,
                    quiet_figure(cycle_p99, Better::kLower), "ms");
    }
    res.layer.set("serve.queue_ms.p50." + ph, quantile(queue, 0.50), "ms");
    res.layer.set("serve.queue_ms.p99." + ph, quantile(queue, 0.99), "ms");
    res.layer.set("serve.service_ms.p50." + ph, quantile(service, 0.50), "ms");
    res.layer.set("serve.service_ms.p99." + ph, quantile(service, 0.99), "ms");
    res.layer.set("serve.batch_size.mean." + ph,
                  inv_batch > 0.0 ? static_cast<double>(ok) / inv_batch : 0.0,
                  "count");
    res.layer.set("serve.shed_share." + ph, share(shed, offered),
                  "share");
    res.layer.set("serve.rejected_share." + ph,
                  share(rejected, offered), "share");
    res.layer.set("serve.expired_share." + ph,
                  share(expired, offered), "share");
    res.layer.set("loadgen.late_us.p99." + ph, late_p99, "us");

    // Reported, not gated: a run must always finish with its figures, and
    // the record says which phases rest on cycles the generator ran late in.
    const bool valid = 4 * (num_cycles - late_cycles) >= num_cycles;
    if (!valid) {
      std::fprintf(stderr,
                   "perfbench: serve_lenet phase %s invalid: the generator "
                   "ran more than %.0f us late at p99 in %zu of %zu cycles\n",
                   ph.c_str(), kLateLimitUs, late_cycles, num_cycles);
    }
    std::ostringstream info;
    info << "{\"rate_rps\": " << spec.rate_rps << ", \"offered\": "
         << offered << ", \"ok\": " << ok << ", \"shed\": " << shed
         << ", \"rejected\": " << rejected << ", \"expired\": " << expired
         << ", \"errors\": " << errors << ", \"mismatched\": " << wrong
         << ", \"late_us_p99\": " << json_number(late_p99)
         << ", \"late_cycles\": " << late_cycles
         << ", \"valid\": " << (valid ? "true" : "false") << "}";
    res.info.emplace_back("phase_" + ph, info.str());
  }
  res.layer.set("serve.submit_us.p50", quantile(submit_us_all, 0.50), "us");
  res.layer.set("serve.submit_us.p99", quantile(submit_us_all, 0.99), "us");

  res.metrics.set("setup_s", median(setup_s), "s");
  res.metrics.set("peak_rss_mb", rss_mb, "MiB");

  res.info.emplace_back("kernel_tiers_lenet",
                        kernel_tiers_json(server->compiled()));
  server->shutdown();
  return res;
}

}  // namespace perfbench
