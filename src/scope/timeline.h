#ifndef STETHO_SCOPE_TIMELINE_H_
#define STETHO_SCOPE_TIMELINE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "profiler/event.h"

namespace stetho::scope {

/// One executed-instruction interval recovered from the trace.
struct TimelineInterval {
  int thread = 0;
  int pc = 0;
  int64_t start_us = 0;  ///< relative to the trace start
  int64_t end_us = 0;
  std::string op;        ///< "module.function"
};

/// Extracts per-thread instruction intervals from a trace (done events carry
/// thread + duration). Returned sorted by (thread, start).
std::vector<TimelineInterval> ExtractIntervals(
    const std::vector<profiler::TraceEvent>& events);

/// Renders the paper's "utilization distribution of threads" as an SVG
/// Gantt chart: one lane per worker thread, one bar per executed
/// instruction, colored by operator module, with the MAL statement as the
/// hover tooltip (<title>). Empty traces yield a small empty chart.
std::string RenderUtilizationTimeline(
    const std::vector<profiler::TraceEvent>& events);

/// Renders the engine's live column memory over time (the trace's rss
/// field) as an SVG line chart — the companion view to the demo's "memory
/// usage by operators" analysis. Peak is annotated.
std::string RenderMemoryCurve(const std::vector<profiler::TraceEvent>& events);

}  // namespace stetho::scope

#endif  // STETHO_SCOPE_TIMELINE_H_
