#include "obs/metrics.h"

#include <algorithm>

#include "common/logging.h"
#include "common/string_util.h"

namespace stetho::obs {
namespace {

std::atomic<bool> g_enabled{false};

bool ValidName(const std::string& name) {
  if (name.empty()) return false;
  auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':';
  };
  if (!head(name[0])) return false;
  for (char c : name) {
    if (!head(c) && !(c >= '0' && c <= '9')) return false;
  }
  return true;
}

}  // namespace

std::string MetricToken(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  if (out.empty()) out = "unknown";
  return out;
}

void SetEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

const std::vector<int64_t>& Histogram::DefaultLatencyBounds() {
  static const std::vector<int64_t> bounds = {
      1, 5, 10, 50, 100, 500, 1000, 5000, 10000, 50000, 100000, 500000, 1000000};
  return bounds;
}

double Histogram::QuantileEstimate(double q) const {
  const int64_t total = count();
  if (total <= 0) return 0;
  q = std::min(1.0, std::max(0.0, q));
  const double target = q * static_cast<double>(total);
  double cumulative = 0;
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    const double in_bucket = static_cast<double>(bucket_count(i));
    if (cumulative + in_bucket < target || in_bucket <= 0) {
      cumulative += in_bucket;
      continue;
    }
    if (i == bounds_.size()) break;  // +Inf bucket: clamp to the last bound
    const double lo = i == 0 ? 0 : static_cast<double>(bounds_[i - 1]);
    const double hi = static_cast<double>(bounds_[i]);
    const double frac = (target - cumulative) / in_bucket;
    return lo + frac * (hi - lo);
  }
  return static_cast<double>(bounds_.back());
}

Result<Counter*> Registry::RegisterCounter(const std::string& name,
                                           const std::string& help) {
  if (!ValidName(name)) {
    return Status::InvalidArgument("invalid metric name '" + name + "'");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (counters_.count(name) != 0 || gauges_.count(name) != 0 ||
      histograms_.count(name) != 0) {
    return Status::AlreadyExists("metric '" + name + "' already registered");
  }
  auto metric = std::unique_ptr<Counter>(new Counter(name, help));
  Counter* raw = metric.get();
  counters_.emplace(name, std::move(metric));
  return raw;
}

Result<Gauge*> Registry::RegisterGauge(const std::string& name,
                                       const std::string& help) {
  if (!ValidName(name)) {
    return Status::InvalidArgument("invalid metric name '" + name + "'");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (counters_.count(name) != 0 || gauges_.count(name) != 0 ||
      histograms_.count(name) != 0) {
    return Status::AlreadyExists("metric '" + name + "' already registered");
  }
  auto metric = std::unique_ptr<Gauge>(new Gauge(name, help));
  Gauge* raw = metric.get();
  gauges_.emplace(name, std::move(metric));
  return raw;
}

Result<Histogram*> Registry::RegisterHistogram(const std::string& name,
                                               const std::string& help,
                                               std::vector<int64_t> bounds) {
  if (!ValidName(name)) {
    return Status::InvalidArgument("invalid metric name '" + name + "'");
  }
  if (bounds.empty()) {
    return Status::InvalidArgument("histogram '" + name + "' needs >= 1 bound");
  }
  for (size_t i = 1; i < bounds.size(); ++i) {
    if (bounds[i] <= bounds[i - 1]) {
      return Status::InvalidArgument("histogram '" + name +
                                     "' bounds must strictly increase");
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (counters_.count(name) != 0 || gauges_.count(name) != 0 ||
      histograms_.count(name) != 0) {
    return Status::AlreadyExists("metric '" + name + "' already registered");
  }
  auto metric = std::unique_ptr<Histogram>(
      new Histogram(name, help, std::move(bounds)));
  Histogram* raw = metric.get();
  histograms_.emplace(name, std::move(metric));
  return raw;
}

Counter* Registry::GetOrCreateCounter(const std::string& name,
                                      const std::string& help) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = counters_.find(name);
    if (it != counters_.end()) return it->second.get();
  }
  Result<Counter*> made = RegisterCounter(name, help);
  if (made.ok()) return made.value();
  // Lost a registration race to an identical literal-named site, or a
  // programmer error (kind clash / bad literal) that CHECK surfaces.
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  STETHO_CHECK(it != counters_.end());
  return it->second.get();
}

Gauge* Registry::GetOrCreateGauge(const std::string& name,
                                  const std::string& help) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = gauges_.find(name);
    if (it != gauges_.end()) return it->second.get();
  }
  Result<Gauge*> made = RegisterGauge(name, help);
  if (made.ok()) return made.value();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  STETHO_CHECK(it != gauges_.end());
  return it->second.get();
}

Histogram* Registry::GetOrCreateHistogram(const std::string& name,
                                          const std::string& help,
                                          const std::vector<int64_t>& bounds) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = histograms_.find(name);
    if (it != histograms_.end()) return it->second.get();
  }
  Result<Histogram*> made = RegisterHistogram(name, help, bounds);
  if (made.ok()) return made.value();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  STETHO_CHECK(it != histograms_.end());
  return it->second.get();
}

Result<int64_t> Registry::CounterValue(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    return Status::NotFound("no counter '" + name + "'");
  }
  return it->second->value();
}

Result<int64_t> Registry::GaugeValue(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) return Status::NotFound("no gauge '" + name + "'");
  return it->second->value();
}

Result<const Histogram*> Registry::FindHistogram(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    return Status::NotFound("no histogram '" + name + "'");
  }
  return static_cast<const Histogram*>(it->second.get());
}

namespace {

bool IsLowercase(const std::string& s) {
  for (char c : s) {
    if (c >= 'A' && c <= 'Z') return false;
  }
  return true;
}

}  // namespace

std::vector<std::string> Registry::AuditMetricNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> violations;
  auto check_common = [&](const std::string& name, const char* kind) {
    if (!IsLowercase(name)) {
      violations.push_back(std::string(kind) + " '" + name +
                           "' must be lowercase");
    }
  };
  for (const auto& [name, counter] : counters_) {
    check_common(name, "counter");
    if (!EndsWith(name, "_total")) {
      violations.push_back("counter '" + name + "' must end in _total");
    }
  }
  for (const auto& [name, gauge] : gauges_) {
    check_common(name, "gauge");
    for (const char* reserved : {"_total", "_count", "_sum", "_bucket"}) {
      if (EndsWith(name, reserved)) {
        violations.push_back("gauge '" + name + "' must not end in the "
                             "reserved suffix " + reserved);
      }
    }
  }
  for (const auto& [name, histogram] : histograms_) {
    check_common(name, "histogram");
    if (!EndsWith(name, "_usec") && !EndsWith(name, "_bytes") &&
        !EndsWith(name, "_seconds") && !EndsWith(name, "_ratio")) {
      violations.push_back("histogram '" + name +
                           "' must end in a unit suffix "
                           "(_usec, _bytes, _seconds, _ratio)");
    }
  }
  return violations;
}

std::string Registry::ExpositionText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  // One merged name-sorted walk keeps the output deterministic regardless of
  // metric kind; the three maps are each already sorted.
  auto c = counters_.begin();
  auto g = gauges_.begin();
  auto h = histograms_.begin();
  while (c != counters_.end() || g != gauges_.end() || h != histograms_.end()) {
    const std::string* cn = c != counters_.end() ? &c->first : nullptr;
    const std::string* gn = g != gauges_.end() ? &g->first : nullptr;
    const std::string* hn = h != histograms_.end() ? &h->first : nullptr;
    const std::string* min = cn;
    if (min == nullptr || (gn != nullptr && *gn < *min)) min = gn;
    if (min == nullptr || (hn != nullptr && *hn < *min)) min = hn;
    if (min == cn && cn != nullptr) {
      const Counter& m = *c->second;
      out += StrFormat("# HELP %s %s\n# TYPE %s counter\n%s %lld\n",
                       m.name().c_str(), m.help().c_str(), m.name().c_str(),
                       m.name().c_str(), static_cast<long long>(m.value()));
      ++c;
    } else if (min == gn && gn != nullptr) {
      const Gauge& m = *g->second;
      out += StrFormat("# HELP %s %s\n# TYPE %s gauge\n%s %lld\n",
                       m.name().c_str(), m.help().c_str(), m.name().c_str(),
                       m.name().c_str(), static_cast<long long>(m.value()));
      ++g;
    } else {
      const Histogram& m = *h->second;
      out += StrFormat("# HELP %s %s\n# TYPE %s histogram\n",
                       m.name().c_str(), m.help().c_str(), m.name().c_str());
      int64_t cumulative = 0;
      for (size_t i = 0; i < m.bounds().size(); ++i) {
        cumulative += m.bucket_count(i);
        out += StrFormat("%s_bucket{le=\"%lld\"} %lld\n", m.name().c_str(),
                         static_cast<long long>(m.bounds()[i]),
                         static_cast<long long>(cumulative));
      }
      cumulative += m.bucket_count(m.bounds().size());
      out += StrFormat("%s_bucket{le=\"+Inf\"} %lld\n", m.name().c_str(),
                       static_cast<long long>(cumulative));
      out += StrFormat("%s_sum %lld\n%s_count %lld\n", m.name().c_str(),
                       static_cast<long long>(m.sum()), m.name().c_str(),
                       static_cast<long long>(m.count()));
      ++h;
    }
  }
  return out;
}

std::string Registry::HistogramSummaryText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, metric] : histograms_) {
    if (metric->count() == 0) continue;
    const double mean =
        static_cast<double>(metric->sum()) /
        static_cast<double>(metric->count());
    out += StrFormat("%s p50=%.0f p95=%.0f p99=%.0f count=%lld mean=%.1f\n",
                     name.c_str(), metric->QuantileEstimate(0.50),
                     metric->QuantileEstimate(0.95),
                     metric->QuantileEstimate(0.99),
                     static_cast<long long>(metric->count()), mean);
  }
  return out;
}

std::vector<MetricSample> Registry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSample> out;
  out.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, metric] : counters_) {
    out.push_back({name, "counter", metric->value(), 0});
  }
  for (const auto& [name, metric] : gauges_) {
    out.push_back({name, "gauge", metric->value(), 0});
  }
  for (const auto& [name, metric] : histograms_) {
    out.push_back({name, "histogram", metric->count(), metric->sum()});
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return a.name < b.name;
            });
  return out;
}

size_t Registry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

Registry* Registry::Default() {
  static Registry registry;
  return &registry;
}

}  // namespace stetho::obs
