#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "tensor/simd.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quiet_figure(std::vector<double> per_window, Better better) {
  return quantile(std::move(per_window),
                  better == Better::kLower ? 0.25 : 0.75);
}

bool repeat_setup(const std::vector<double>& done_s, int min_reps) {
  constexpr double kBudgetS = 0.3;
  constexpr std::size_t kMaxReps = 200;
  const std::size_t n = done_s.size();
  if (n < static_cast<std::size_t>(std::max(1, min_reps))) return true;
  double total = 0.0;
  for (double s : done_s) total += s;
  return min_reps > 1 && total < kBudgetS && n < kMaxReps;
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit});
}

const Metric* Metrics::find(std::string_view name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void Metrics::merge(const Metrics& other) {
  for (const Metric& m : other.metrics_) {
    if (find(m.name) != nullptr) {
      throw std::logic_error("metric emitted twice: " + m.name);
    }
    metrics_.push_back(m);
  }
}

std::string Fnv1a::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

SpanBuffer::SpanBuffer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {
  if (enabled_) spans_.reserve(1 << 16);
}

int SpanBuffer::begin(const char* name, int parent, std::uint64_t request_id) {
  if (!enabled_) return kNone;
  const std::int64_t t = ns(Clock::now());
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, t, -1, parent, request_id});
  return static_cast<int>(spans_.size() - 1);
}

void SpanBuffer::end(int id) {
  if (id == kNone) return;
  const std::int64_t t = ns(Clock::now());
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_ns = t;
}

int SpanBuffer::record(const char* name, Clock::time_point start,
                       Clock::time_point end, int parent,
                       std::uint64_t request_id) {
  if (!enabled_) return kNone;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, ns(start), ns(end), parent, request_id});
  return static_cast<int>(spans_.size() - 1);
}

std::vector<double> SpanBuffer::durations_ms(std::string_view name,
                                             int parent) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.end_ns < 0 || name != s.name) continue;
    if (parent != kNone && s.parent != parent) continue;
    out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
  }
  return out;
}

std::size_t SpanBuffer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

bool SpanBuffer::write_chrome_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  f << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::int64_t end = s.end_ns < 0 ? s.start_ns : s.end_ns;
    f << "{\"name\": \"" << json_escape(s.name)
      << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
      << json_number(static_cast<double>(s.start_ns) * 1e-3)
      << ", \"dur\": " << json_number(static_cast<double>(end - s.start_ns) * 1e-3)
      << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
      << ", \"request_id\": " << s.request_id << "}}"
      << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

namespace {

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        const std::size_t b = v.find_first_not_of(' ');
        return b == std::string::npos ? std::string() : v.substr(b);
      }
    }
  }
  return "unknown";
}

}  // namespace

std::string host_fingerprint_json() {
  namespace simd = lightator::tensor::simd;
#ifdef LIGHTATOR_DISABLE_TRACING
  const bool tracing_compiled = false;
#else
  const bool tracing_compiled = true;
#endif
  std::ostringstream j;
  j << "{\"cpu_model\": \"" << json_escape(cpu_model()) << "\""
    << ", \"nproc\": " << std::thread::hardware_concurrency()
    << ", \"simd_enabled\": " << (simd::simd_active() ? "true" : "false")
    << ", \"auto_kernel\": \"" << simd::active_kernel() << "\""
    << ", \"avx2\": " << (simd::avx2_enabled() ? "true" : "false")
    << ", \"avx512\": " << (simd::avx512_enabled() ? "true" : "false")
    << ", \"vnni\": " << (simd::vnni_enabled() ? "true" : "false")
    << ", \"tracing_compiled_in\": " << (tracing_compiled ? "true" : "false")
    << ", \"compiler\": \"" << json_escape(__VERSION__) << "\""
    << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\"}";
  return j.str();
}

std::string json_escape(std::string_view s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) {
    throw std::logic_error("non-finite value cannot be printed as JSON");
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace perfbench
