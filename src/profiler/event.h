#ifndef STETHO_PROFILER_EVENT_H_
#define STETHO_PROFILER_EVENT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace stetho::profiler {

/// Execution state reported by a trace event. Every MAL instruction is
/// represented in the trace by two events: a "start" marking the beginning
/// of interpretation and a "done" marking its end (paper §3.3).
enum class EventState {
  kStart = 0,
  kDone = 1,
};

const char* EventStateName(EventState state);

/// One profiled MAL-instruction event — the unit streamed over UDP to the
/// textual Stethoscope and written to trace files. Field set mirrors the
/// paper's Fig. 3: event sequence number, timestamp, program counter, worker
/// thread, state, elapsed microseconds, resident memory, and the MAL
/// statement text.
struct TraceEvent {
  int64_t event = 0;       ///< global sequence number ("event" attribute).
                           ///< Delivered events are numbered contiguously
                           ///< per Profiler (filtered events consume no
                           ///< number), so a receiver-side hole means
                           ///< transport loss — the net::StreamHealth
                           ///< accounting and the trace-sequence-gap lint
                           ///< check both build on this.
  int64_t time_us = 0;     ///< server clock at emission, microseconds
  int pc = 0;              ///< program counter: index into the MAL plan
  int thread = 0;          ///< query-local admission slot in [0, dop). The
                           ///< contract: the start and the done event of one
                           ///< pc carry the SAME slot, even when work
                           ///< stealing runs them on different pool workers
                           ///< (the interpreter stamps both from the slot it
                           ///< acquired at dispatch), so per-thread analysis
                           ///< keeps its per-query meaning. Checked by
                           ///< trace-span-conformance.
  EventState state = EventState::kStart;
  int64_t usec = 0;        ///< instruction elapsed time (0 for start events)
  int64_t rss_bytes = 0;   ///< engine-wide live column memory at emission
  std::string stmt;        ///< rendered MAL statement

  bool operator==(const TraceEvent& other) const = default;
};

/// The operator ("module.function") of a rendered MAL statement such as
/// "X_3:bat[:oid] := sql.tid(...);", "(X_1:bat[:oid],X_2:bat[:oid]) :=
/// group.group(X_0);" or "io.print(X_5);": the text after the first ":="
/// (if any) and any spaces, up to the first "(" or, without one, the end.
/// A received trace carries only the statement text, so every consumer
/// that groups events by operator reads it through this function.
std::string_view OperatorOf(std::string_view stmt);

/// Renders the single-line trace format:
///   [ event, time_us, pc, thread, "state", usec, rss_bytes, "stmt" ]
std::string FormatTraceLine(const TraceEvent& event);

/// Parses a line produced by FormatTraceLine. Tolerates surrounding
/// whitespace; ParseError on malformed lines.
Result<TraceEvent> ParseTraceLine(std::string_view line);

}  // namespace stetho::profiler

#endif  // STETHO_PROFILER_EVENT_H_
