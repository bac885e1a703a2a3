#include "net/pipe_health.h"

#include <algorithm>

#include "common/saturating.h"
#include "common/string_util.h"
#include "obs/metrics.h"

namespace stetho::net {
namespace {

// Process-wide mirrors of every StreamHealth instance, so `--metrics` and
// Mserver::MetricsText() expose pipeline health without a handle on the
// individual accountants (there is one per connected server stream).
obs::Counter* LostCounter() {
  static obs::Counter* c = obs::Registry::Default()->GetOrCreateCounter(
      "stetho_pipe_lost_total",
      "Trace-stream sequence numbers declared lost (gap aged past the "
      "reorder window or open at end of stream)");
  return c;
}

obs::Counter* ReorderedCounter() {
  static obs::Counter* c = obs::Registry::Default()->GetOrCreateCounter(
      "stetho_pipe_reordered_total",
      "Trace-stream events that arrived after a later sequence number");
  return c;
}

obs::Counter* DuplicatedCounter() {
  static obs::Counter* c = obs::Registry::Default()->GetOrCreateCounter(
      "stetho_pipe_duplicated_total",
      "Trace-stream arrivals of an already-delivered sequence number");
  return c;
}

obs::Histogram* LatencyHistogram() {
  static obs::Histogram* h = obs::Registry::Default()->GetOrCreateHistogram(
      "stetho_pipe_latency_usec",
      "End-to-end emit-to-ingest delay per trace event, corrected by the "
      "estimated clock offset",
      obs::Histogram::DefaultLatencyBounds());
  return h;
}

obs::Histogram* StalenessHistogram() {
  static obs::Histogram* h = obs::Registry::Default()->GetOrCreateHistogram(
      "stetho_pipe_staleness_usec",
      "Age of the newest ingested trace event at each analysis round "
      "(receiver now minus offset-corrected newest emit)",
      obs::Histogram::DefaultLatencyBounds());
  return h;
}

/// hi - lo for lo <= hi, exact over the whole int64_t range.
uint64_t Distance(int64_t lo, int64_t hi) {
  return static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
}

}  // namespace

std::string PipeHealthSummary::ToString() const {
  std::string s = StrFormat(
      "pipe: %lld ok, %lld lost (%.1f%%), %lld reordered, %lld duplicated",
      static_cast<long long>(observed),
      static_cast<long long>(SaturatingAdd(lost, pending)),
      100.0 * loss_ratio(), static_cast<long long>(reordered),
      static_cast<long long>(duplicated));
  if (clock_offset_us != kNoClockOffset) {
    s += StrFormat(", latency %lld us (max %lld)",
                   static_cast<long long>(last_latency_us),
                   static_cast<long long>(max_latency_us));
  }
  return s;
}

void StreamHealth::AddLostLocked(uint64_t holes) {
  const int64_t n = static_cast<int64_t>(std::min<uint64_t>(holes, INT64_MAX));
  sum_.lost = SaturatingAdd(sum_.lost, n);
  LostCounter()->Increment(n);
}

void StreamHealth::OpenHolesLocked(int64_t lo, int64_t hi) {
  const uint64_t holes = Distance(lo, hi) - 1;
  // The hole at hi - j trails the high-water mark by behind + j, so the
  // top `open` holes stay inside the window.
  const uint64_t behind = Distance(hi, sum_.max_seq);
  const uint64_t window = static_cast<uint64_t>(kReorderWindow);
  const uint64_t open =
      behind >= window ? 0 : std::min(holes, window - behind);
  for (uint64_t j = 1; j <= open; ++j) {
    pending_.insert(hi - static_cast<int64_t>(j));
  }
  if (holes > open) AddLostLocked(holes - open);
}

void StreamHealth::AgeOutLocked() {
  // A hole further behind the high-water mark than the reorder window is
  // transport loss, not a straggler.
  while (!pending_.empty() &&
         Distance(*pending_.begin(), sum_.max_seq) >
             static_cast<uint64_t>(kReorderWindow)) {
    pending_.erase(pending_.begin());
    AddLostLocked(1);
  }
}

void StreamHealth::Observe(const profiler::TraceEvent& event,
                           int64_t ingest_us) {
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t seq = event.event;
  if (!any_) {
    any_ = true;
    sum_.min_seq = sum_.max_seq = seq;
    ++sum_.observed;
  } else if (seq > sum_.max_seq) {
    const int64_t previous = sum_.max_seq;
    sum_.max_seq = seq;
    if (seq - 1 > previous) OpenHolesLocked(previous, seq);  // skipped some
    ++sum_.observed;
  } else if (seq < sum_.min_seq) {
    // Straggler from before the first arrival: widen the span downward and
    // account the holes it reveals. It necessarily arrived out of order.
    OpenHolesLocked(seq, sum_.min_seq);
    sum_.min_seq = seq;
    ++sum_.observed;
    ++sum_.reordered;
    ReorderedCounter()->Increment();
  } else if (pending_.erase(seq) > 0) {
    ++sum_.observed;
    ++sum_.reordered;
    ReorderedCounter()->Increment();
  } else {
    // Inside the span, neither new nor pending: a repeat delivery. (A
    // straggler for a seq already aged into `lost` lands here too — the
    // loss verdict is monotone, so the late copy is surplus by then.)
    ++sum_.duplicated;
    DuplicatedCounter()->Increment();
  }
  AgeOutLocked();
  sum_.pending = static_cast<int64_t>(pending_.size());

  sum_.newest_emit_us = std::max(sum_.newest_emit_us, event.time_us);
  if (ingest_us >= 0) {
    const int64_t delta = SaturatingSub(ingest_us, event.time_us);
    sum_.clock_offset_us = std::min(sum_.clock_offset_us, delta);
    const int64_t latency = SaturatingSub(delta, sum_.clock_offset_us);
    sum_.last_latency_us = latency;
    sum_.max_latency_us = std::max(sum_.max_latency_us, latency);
    LatencyHistogram()->Observe(latency);
  }
}

void StreamHealth::ObserveStaleness(int64_t now_us) {
  std::lock_guard<std::mutex> lock(mu_);
  if (sum_.clock_offset_us == kNoClockOffset || sum_.newest_emit_us == 0) {
    return;
  }
  const int64_t staleness = std::max<int64_t>(
      0, SaturatingSub(SaturatingSub(now_us, sum_.clock_offset_us),
                       sum_.newest_emit_us));
  StalenessHistogram()->Observe(staleness);
}

void StreamHealth::Finalize() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!pending_.empty()) AddLostLocked(pending_.size());
  pending_.clear();
  sum_.pending = 0;
}

PipeHealthSummary StreamHealth::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sum_;
}

}  // namespace stetho::net
