#ifndef STETHO_OBS_METRICS_H_
#define STETHO_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace stetho::obs {

/// Process-wide observability kill switch gating every code path that costs
/// more than a relaxed atomic increment (span recording, latency clock
/// reads, per-pass timing). Plain counters stay live even when disabled —
/// they replace ad-hoc atomics and cost the same. Defaults to off so the
/// hot path pays nothing unless a CLI flag, test, or server command opts in.
void SetEnabled(bool enabled);
bool Enabled();

/// Monotonically increasing counter. The hot path is one relaxed fetch_add;
/// construction and naming go through a Registry.
class Counter {
 public:
  void Increment(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }

 private:
  friend class Registry;
  Counter(std::string name, std::string help)
      : name_(std::move(name)), help_(std::move(help)) {}

  const std::string name_;
  const std::string help_;
  std::atomic<int64_t> value_{0};
};

/// Last-write-wins instantaneous value (queue depths, live bytes).
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }

 private:
  friend class Registry;
  Gauge(std::string name, std::string help)
      : name_(std::move(name)), help_(std::move(help)) {}

  const std::string name_;
  const std::string help_;
  std::atomic<int64_t> value_{0};
};

/// Fixed-bucket latency histogram. Bucket `i` counts observations with
/// `value <= bounds[i]` (Prometheus `le` semantics); one implicit +Inf
/// bucket catches the rest. Observe is lock-free: a linear scan over a
/// handful of bounds plus two relaxed increments.
class Histogram {
 public:
  /// Microsecond latency bounds spanning 1µs..1s, roughly logarithmic.
  static const std::vector<int64_t>& DefaultLatencyBounds();

  void Observe(int64_t value) {
    size_t i = 0;
    while (i < bounds_.size() && value > bounds_[i]) ++i;
    buckets_[i].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  int64_t sum() const { return sum_.load(std::memory_order_relaxed); }

  /// Estimated quantile (q in [0,1]) by linear interpolation inside the
  /// fixed buckets; observations in the +Inf bucket clamp to the last
  /// bound. 0 when empty. Approximate by construction — good enough for
  /// the p50/p95/p99 summary lines, not a substitute for the raw buckets.
  double QuantileEstimate(double q) const;

  const std::vector<int64_t>& bounds() const { return bounds_; }
  /// Count in bucket `i` (non-cumulative); `i == bounds().size()` is +Inf.
  int64_t bucket_count(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }

 private:
  friend class Registry;
  Histogram(std::string name, std::string help, std::vector<int64_t> bounds)
      : name_(std::move(name)),
        help_(std::move(help)),
        bounds_(std::move(bounds)),
        buckets_(bounds_.size() + 1) {}

  const std::string name_;
  const std::string help_;
  const std::vector<int64_t> bounds_;
  std::vector<std::atomic<int64_t>> buckets_;
  std::atomic<int64_t> sum_{0};
  std::atomic<int64_t> count_{0};
};

/// One metric at snapshot time, rendered kind-agnostically for the flight
/// recorder and tests.
struct MetricSample {
  std::string name;
  std::string kind;  ///< "counter" | "gauge" | "histogram"
  int64_t value = 0;  ///< counter/gauge value; histogram observation count
  int64_t sum = 0;    ///< histogram only
};

/// `text` made safe to embed in a metric name: every character outside
/// [A-Za-z0-9_] becomes '_', and empty text becomes "unknown". For name
/// parts that come from outside the code (module names from parsed MAL,
/// pass names), since the registry aborts on malformed literal names.
std::string MetricToken(const std::string& text);

/// Process-wide metrics registry. Registration (rare, startup / first-use)
/// takes a mutex and validates names; the returned pointers are stable for
/// the registry's lifetime, so instrumented hot paths touch only the atomic
/// metric objects. Thread-safe throughout.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Strict registration: InvalidArgument for malformed names (allowed:
  /// [A-Za-z_:][A-Za-z0-9_:]*), AlreadyExists when the name is taken.
  Result<Counter*> RegisterCounter(const std::string& name,
                                   const std::string& help);
  Result<Gauge*> RegisterGauge(const std::string& name,
                               const std::string& help);
  Result<Histogram*> RegisterHistogram(const std::string& name,
                                       const std::string& help,
                                       std::vector<int64_t> bounds);

  /// Idempotent registration for literal-named instrumentation sites:
  /// returns the existing metric on a repeat call. A kind clash or malformed
  /// name is a programmer error and aborts (names are compile-time
  /// literals, like kernel registration).
  Counter* GetOrCreateCounter(const std::string& name, const std::string& help);
  Gauge* GetOrCreateGauge(const std::string& name, const std::string& help);
  Histogram* GetOrCreateHistogram(const std::string& name,
                                  const std::string& help,
                                  const std::vector<int64_t>& bounds);

  /// Lookups for tests and dump commands; NotFound for unknown names.
  Result<int64_t> CounterValue(const std::string& name) const;
  Result<int64_t> GaugeValue(const std::string& name) const;
  Result<const Histogram*> FindHistogram(const std::string& name) const;

  /// Prometheus naming-convention audit over every registered metric.
  /// Returns one human-readable violation per offending metric (empty =
  /// clean), enforcing: counters end in `_total`; histograms end in a unit
  /// suffix (`_usec`, `_bytes`, `_seconds`, or `_ratio`); gauges do not end
  /// in the suffixes Prometheus reserves for counter/histogram series
  /// (`_total`, `_count`, `_sum`, `_bucket`); and all names are lowercase.
  /// obs_test runs this against the default registry so a misnamed metric
  /// fails CI naming its creator.
  std::vector<std::string> AuditMetricNames() const;

  /// Prometheus-style text exposition, deterministically sorted by name.
  std::string ExpositionText() const;

  /// One "name p50=… p95=… p99=… count=… mean=…" line per non-empty
  /// histogram, sorted by name — the human-sized footer MetricsText() and
  /// `stethoscope --watch` append to the raw exposition.
  std::string HistogramSummaryText() const;

  /// Point-in-time snapshot of every metric, sorted by name.
  std::vector<MetricSample> Snapshot() const;

  size_t size() const;

  /// Process-wide shared instance all built-in instrumentation reports to.
  static Registry* Default();

 private:
  mutable std::mutex mu_;  // guards the maps; metric values are atomic
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace stetho::obs

#endif  // STETHO_OBS_METRICS_H_
