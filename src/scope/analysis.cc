#include "scope/analysis.h"

#include <algorithm>
#include <map>

#include "analysis/trace_index.h"
#include "common/saturating.h"
#include "common/string_util.h"

namespace stetho::scope {

using profiler::EventState;
using profiler::TraceEvent;

namespace {

/// Thread utilization; the peak comes from `index`, built over `events`.
UtilizationReport Utilization(const std::vector<TraceEvent>& events,
                              const analysis::TraceIndex& index) {
  UtilizationReport report;
  if (events.empty()) return report;

  std::map<int, ThreadUtilization> threads;
  int64_t first_us = events.front().time_us;
  int64_t last_us = events.front().time_us;
  int64_t total_busy = 0;
  for (const TraceEvent& e : events) {
    first_us = std::min(first_us, e.time_us);
    last_us = std::max(last_us, e.time_us);
    if (e.state != EventState::kDone) continue;
    ThreadUtilization& t = threads[e.thread];
    t.thread = e.thread;
    t.busy_us = SaturatingAdd(t.busy_us, e.usec);
    ++t.instructions;
    total_busy = SaturatingAdd(total_busy, e.usec);
  }

  report.wall_us = SaturatingSub(last_us, first_us);
  report.max_concurrency = static_cast<size_t>(index.peak_open());
  report.avg_concurrency =
      report.wall_us > 0
          ? static_cast<double>(total_busy) / static_cast<double>(report.wall_us)
          : 0.0;
  for (auto& [id, t] : threads) report.threads.push_back(t);
  return report;
}

}  // namespace

UtilizationReport AnalyzeThreadUtilization(const std::vector<TraceEvent>& events) {
  return Utilization(events, analysis::TraceIndex(events));
}

std::string UtilizationReport::ToString() const {
  std::string out = StrFormat(
      "wall=%lldus max_concurrency=%zu avg_concurrency=%.2f\n",
      static_cast<long long>(wall_us), max_concurrency, avg_concurrency);
  for (const ThreadUtilization& t : threads) {
    double share = wall_us > 0 ? 100.0 * static_cast<double>(t.busy_us) /
                                     static_cast<double>(wall_us)
                               : 0.0;
    out += StrFormat("  thread %d: busy=%lldus (%.1f%%) instructions=%lld\n",
                     t.thread, static_cast<long long>(t.busy_us), share,
                     static_cast<long long>(t.instructions));
  }
  return out;
}

std::vector<OperatorStats> AnalyzeOperators(const std::vector<TraceEvent>& events) {
  std::map<std::string, OperatorStats> by_op;
  std::map<std::string, std::vector<int64_t>> durations;
  for (const TraceEvent& e : events) {
    if (e.state != EventState::kDone) continue;
    const std::string op(profiler::OperatorOf(e.stmt));
    OperatorStats& stats = by_op[op];
    stats.op = op;
    ++stats.calls;
    stats.total_usec = SaturatingAdd(stats.total_usec, e.usec);
    stats.max_usec = std::max(stats.max_usec, e.usec);
    stats.max_rss_bytes = std::max(stats.max_rss_bytes, e.rss_bytes);
    durations[op].push_back(e.usec);
  }
  for (auto& [op, samples] : durations) {
    std::sort(samples.begin(), samples.end());
    OperatorStats& stats = by_op[op];
    // Nearest-rank percentiles.
    stats.p50_usec = samples[(samples.size() - 1) / 2];
    stats.p95_usec = samples[(samples.size() * 95) / 100 >= samples.size()
                                 ? samples.size() - 1
                                 : (samples.size() * 95) / 100];
  }
  std::vector<OperatorStats> out;
  out.reserve(by_op.size());
  for (auto& [op, stats] : by_op) out.push_back(std::move(stats));
  std::sort(out.begin(), out.end(), [](const OperatorStats& a, const OperatorStats& b) {
    return a.total_usec > b.total_usec;
  });
  return out;
}

std::vector<CostlyCluster> FindCostlyClusters(
    const std::vector<TraceEvent>& events, int64_t min_usec,
    size_t max_gap_events) {
  std::vector<CostlyCluster> clusters;
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (e.state != EventState::kDone || e.usec < min_usec) continue;
    if (!clusters.empty() &&
        i - clusters.back().last_event <= max_gap_events) {
      CostlyCluster& c = clusters.back();
      c.last_event = i;
      c.pcs.push_back(e.pc);
      c.total_usec = SaturatingAdd(c.total_usec, e.usec);
      continue;
    }
    CostlyCluster c;
    c.first_event = i;
    c.last_event = i;
    c.pcs.push_back(e.pc);
    c.total_usec = e.usec;
    clusters.push_back(std::move(c));
  }
  return clusters;
}

ParallelismDiagnosis DiagnoseParallelism(const std::vector<TraceEvent>& events,
                                         int expected_dop) {
  const analysis::TraceIndex index(events);
  const UtilizationReport util = Utilization(events, index);
  ParallelismDiagnosis diag;
  diag.max_concurrency = util.max_concurrency;
  diag.avg_concurrency = util.avg_concurrency;
  diag.threads_used = static_cast<int>(index.threads().size());
  diag.expected_dop = expected_dop;
  diag.sequential_anomaly =
      expected_dop > 1 &&
      (diag.threads_used <= 1 || util.max_concurrency <= 1);
  if (diag.sequential_anomaly) {
    diag.summary = StrFormat(
        "ANOMALY: plan executed sequentially (threads=%d, peak "
        "concurrency=%zu) although dop=%d was expected",
        diag.threads_used, diag.max_concurrency, expected_dop);
  } else {
    diag.summary = StrFormat(
        "plan used %d threads, peak concurrency %zu (dop=%d)",
        diag.threads_used, diag.max_concurrency, expected_dop);
  }
  return diag;
}

}  // namespace stetho::scope
