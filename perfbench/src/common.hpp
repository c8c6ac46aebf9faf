// Shared plumbing of the benchmark binary: clocks and order statistics, the
// metric record each run prints, the benchmark's own in-memory span buffer,
// and the host/build fingerprint.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nearest-rank quantile (q in [0, 1]) of `v`; +inf entries are allowed and
/// stand for requests that failed. 0 for an empty sample.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);
/// A run's figure from the same figure taken in each of its windows (short
/// stretches of the run): the quartile on the better side, the lower
/// quartile of a time and the upper quartile of a rate. Interference from
/// a shared host only ever slows a window down, so this reads the run's
/// quieter windows; a stretch of host slowness covering up to three quarters
/// of the run does not move it, a change that slows every window does.
enum class Better { kLower, kHigher };
double quiet_figure(std::vector<double> per_window, Better better);

/// Whether to time one more set-up, given the durations (s) of those done:
/// at least `min_reps`; past that, while they total under 0.3 s (at most 200)
/// so a set-up of a few milliseconds is still a median of many. min_reps of 1
/// means exactly one.
bool repeat_setup(const std::vector<double>& done_s, int min_reps);

/// One printed metric. Names use only [A-Za-z0-9_.-].
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& all() const { return metrics_; }
  const Metric* find(std::string_view name) const;
  /// Appends every metric of `other` (names must not collide).
  void merge(const Metrics& other);

 private:
  std::vector<Metric> metrics_;
};

/// The benchmark's own span recorder: name, start, end, parent and request
/// id, kept in memory and written out as chrome://tracing JSON when the run
/// ends. Spans are recorded by the benchmark around its calls into the
/// program (the program's own obs::TraceRecorder stays off). A disabled
/// buffer records nothing and begin() returns kNone.
class SpanBuffer {
 public:
  static constexpr int kNone = -1;

  explicit SpanBuffer(bool enabled);

  bool enabled() const { return enabled_; }

  /// Opens a span now; returns its id (kNone when disabled).
  int begin(const char* name, int parent = kNone, std::uint64_t request_id = 0);
  /// Closes span `id` now (no-op for kNone).
  void end(int id);
  /// Records a span whose interval the caller measured.
  int record(const char* name, Clock::time_point start, Clock::time_point end,
             int parent = kNone, std::uint64_t request_id = 0);

  /// Durations (ms) of closed spans named `name`, restricted to direct
  /// children of `parent` unless `parent` is kNone.
  std::vector<double> durations_ms(std::string_view name,
                                   int parent = kNone) const;
  std::size_t size() const;

  /// Writes chrome://tracing JSON ("X" events; args carry parent and
  /// request id). Returns false when the file cannot be written.
  bool write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
    int parent = kNone;
    std::uint64_t request_id = 0;
  };
  std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// RAII span over a scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer& buf, const char* name, int parent = SpanBuffer::kNone,
             std::uint64_t request_id = 0)
      : buf_(buf), id_(buf.begin(name, parent, request_id)) {}
  ~ScopedSpan() { buf_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanBuffer& buf_;
  int id_;
};

/// 64-bit FNV-1a over a byte stream: the digests the self-tests pin.
class Fnv1a {
 public:
  void mix(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 1099511628211ull;
    }
  }
  /// The digest as 16 hex digits.
  std::string hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// Peak resident set of this process so far (VmHWM), in MiB.
double peak_rss_mb();

/// Host and build fingerprint as a JSON object: CPU model, nproc, SIMD
/// availability, whether the trace span macros are compiled in, compiler
/// and build type. Kernel tiers per GEMM are added by the caller.
std::string host_fingerprint_json();

/// Escapes a string for a JSON string literal (without the quotes).
std::string json_escape(std::string_view s);

/// Formats a double with all its significant digits (JSON number).
std::string json_number(double v);

}  // namespace perfbench
