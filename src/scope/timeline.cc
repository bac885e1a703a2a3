#include "scope/timeline.h"

#include <algorithm>
#include <map>

#include "common/string_util.h"

namespace stetho::scope {

using profiler::EventState;
using profiler::TraceEvent;

namespace {

/// Deterministic pastel color per module name.
std::string ModuleColor(const std::string& op) {
  size_t dot = op.find('.');
  std::string module = dot == std::string::npos ? op : op.substr(0, dot);
  uint64_t h = 1469598103934665603ULL;
  for (char c : module) h = (h ^ static_cast<uint64_t>(c)) * 1099511628211ULL;
  // Pastel: keep channels in [96, 224].
  int r = 96 + static_cast<int>(h % 128);
  int g = 96 + static_cast<int>((h >> 8) % 128);
  int b = 96 + static_cast<int>((h >> 16) % 128);
  return StrFormat("#%02x%02x%02x", r, g, b);
}

}  // namespace

std::vector<TimelineInterval> ExtractIntervals(
    const std::vector<TraceEvent>& events) {
  std::vector<TimelineInterval> intervals;
  if (events.empty()) return intervals;
  int64_t t0 = events.front().time_us;
  for (const TraceEvent& e : events) t0 = std::min(t0, e.time_us);
  for (const TraceEvent& e : events) {
    if (e.state != EventState::kDone) continue;
    TimelineInterval iv;
    iv.thread = e.thread;
    iv.pc = e.pc;
    iv.end_us = e.time_us - t0;
    iv.start_us = iv.end_us - e.usec;
    if (iv.start_us < 0) iv.start_us = 0;
    iv.op = profiler::OperatorOf(e.stmt);
    intervals.push_back(std::move(iv));
  }
  std::sort(intervals.begin(), intervals.end(),
            [](const TimelineInterval& a, const TimelineInterval& b) {
              if (a.thread != b.thread) return a.thread < b.thread;
              return a.start_us < b.start_us;
            });
  return intervals;
}

std::string RenderUtilizationTimeline(const std::vector<TraceEvent>& events,
                                      const TimelineOptions& options) {
  std::vector<TimelineInterval> intervals = ExtractIntervals(events);

  // Lanes in thread order.
  std::map<int, size_t> lane;
  int64_t span_us = 1;
  for (const TimelineInterval& iv : intervals) {
    lane.emplace(iv.thread, lane.size());
    span_us = std::max(span_us, iv.end_us);
  }
  double height =
      options.row_height * static_cast<double>(std::max<size_t>(lane.size(), 1)) +
      28;  // header row
  std::string out = StrFormat(
      "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%.0f\" "
      "height=\"%.0f\">\n",
      options.width + options.label_width, height);
  out += StrFormat(
      "  <text x=\"4\" y=\"16\" font-family=\"monospace\" font-size=\"12\">"
      "thread timeline — %zu instructions over %lldus</text>\n",
      intervals.size(), static_cast<long long>(span_us));

  double usable = options.width;
  auto x_of = [&](int64_t us) {
    return options.label_width +
           usable * static_cast<double>(us) / static_cast<double>(span_us);
  };
  for (const auto& [thread, row] : lane) {
    double y = 24 + options.row_height * static_cast<double>(row);
    out += StrFormat(
        "  <text x=\"4\" y=\"%.1f\" font-family=\"monospace\" "
        "font-size=\"11\">thread %d</text>\n",
        y + options.row_height * 0.7, thread);
    out += StrFormat(
        "  <line x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" y2=\"%.1f\" "
        "stroke=\"#dddddd\"/>\n",
        options.label_width, y + options.row_height,
        options.label_width + usable, y + options.row_height);
  }
  for (const TimelineInterval& iv : intervals) {
    double y = 24 + options.row_height *
                        static_cast<double>(lane[iv.thread]);
    int64_t start = iv.start_us;
    int64_t end = std::max(iv.end_us, start + options.min_visible_us);
    double x1 = x_of(start);
    double w = std::max(0.5, x_of(end) - x1);
    out += StrFormat(
        "  <rect class=\"interval\" data-pc=\"%d\" x=\"%.2f\" y=\"%.1f\" "
        "width=\"%.2f\" height=\"%.1f\" fill=\"%s\" stroke=\"#666666\" "
        "stroke-width=\"0.3\"><title>pc=%d %s (%lldus)</title></rect>\n",
        iv.pc, x1, y + 2, w, options.row_height - 6,
        ModuleColor(iv.op).c_str(), iv.pc, EscapeXml(iv.op).c_str(),
        static_cast<long long>(iv.end_us - iv.start_us));
  }
  out += "</svg>\n";
  return out;
}

std::string RenderMemoryCurve(const std::vector<TraceEvent>& events,
                              const TimelineOptions& options) {
  // Points in emission order: (relative time, rss).
  std::vector<std::pair<int64_t, int64_t>> points;
  int64_t t0 = 0;
  int64_t span_us = 1;
  int64_t peak = 0;
  if (!events.empty()) {
    t0 = events.front().time_us;
    for (const TraceEvent& e : events) t0 = std::min(t0, e.time_us);
    for (const TraceEvent& e : events) {
      int64_t t = e.time_us - t0;
      points.emplace_back(t, e.rss_bytes);
      span_us = std::max(span_us, t);
      peak = std::max(peak, e.rss_bytes);
    }
    std::stable_sort(points.begin(), points.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
  }
  const double chart_h = 180;
  const double height = chart_h + 40;
  std::string out = StrFormat(
      "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%.0f\" "
      "height=\"%.0f\">\n",
      options.width + options.label_width, height);
  out += StrFormat(
      "  <text x=\"4\" y=\"16\" font-family=\"monospace\" font-size=\"12\">"
      "engine memory — peak %lld bytes over %lldus</text>\n",
      static_cast<long long>(peak), static_cast<long long>(span_us));
  double y_base = 24 + chart_h;
  out += StrFormat(
      "  <line x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" y2=\"%.1f\" "
      "stroke=\"#888888\"/>\n",
      options.label_width, y_base, options.label_width + options.width, y_base);
  if (!points.empty() && peak > 0) {
    std::string path = "  <polyline fill=\"none\" stroke=\"#c03030\" "
                       "stroke-width=\"1.2\" points=\"";
    for (const auto& [t, rss] : points) {
      double x = options.label_width +
                 options.width * static_cast<double>(t) /
                     static_cast<double>(span_us);
      double y = y_base - chart_h * static_cast<double>(rss) /
                              static_cast<double>(peak);
      path += StrFormat("%.1f,%.1f ", x, y);
    }
    path += "\"/>\n";
    out += path;
  }
  out += "</svg>\n";
  return out;
}

}  // namespace stetho::scope
