#ifndef STETHO_ANALYSIS_PERFDIFF_H_
#define STETHO_ANALYSIS_PERFDIFF_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/interpreter.h"
#include "mal/program.h"
#include "obs/profile_store.h"
#include "profiler/event.h"

namespace stetho::analysis {

/// --- Cross-run trace comparison (the analysis half of the profile store) ---
///
/// obs::ProfileStore keeps baselines keyed by plain uint64 shape hashes;
/// this header owns everything that needs MAL, profiler or engine types:
/// hashing a plan or trace into that key, extracting a QueryObservation
/// from a recorded trace or a finished run, and diffing two traces of the
/// same shape per pc.

/// mal::ShapeHasher over the rendered instructions (the function-name
/// header is deliberately excluded: "user.s0" and "user.s17" with identical
/// bodies are one plan shape). The key ProgressModelCache and ProfileStore
/// share; per-query paths read engine::PreparedPlan::shape_hash(), the same
/// value computed once when the plan is prepared.
uint64_t PlanShapeHash(const mal::Program& program);

/// The same hash computed from a recorded trace: the statement text of
/// each pc's first event, mixed in ascending pc order. Equal to
/// PlanShapeHash of the plan that produced the trace whenever the trace
/// covers every pc (the one-start/one-done contract), because the profiler
/// stamps events with the rendered instruction text.
uint64_t TraceShapeHash(const std::vector<profiler::TraceEvent>& trace);

/// Folds a recorded trace into a single-query observation: per-pc duration
/// (first done event's usec), engine live bytes at completion, observed
/// concurrency (open start/done intervals when the pc started, itself
/// included), and the trace makespan as total_usec. shape_hash is set from
/// TraceShapeHash; callers holding the plan should overwrite it with
/// PlanShapeHash to key consistently with the server's fold path.
obs::QueryObservation ObservationFromTrace(
    const std::vector<profiler::TraceEvent>& trace);

/// Folds a finished run into a single-query observation from the
/// interpreter's own per-pc record: each pc's duration, its live bytes
/// after completion (both clamped at 0) and the concurrency when its
/// [start_us, start_us + usec] interval opened, plus the run's end-to-end
/// time. This is what the server stores for every query it executes.
obs::QueryObservation ObservationFromStats(const engine::QueryResult& result,
                                           uint64_t shape_hash);

/// One matched pc in a two-trace comparison.
struct PcDelta {
  int pc = -1;
  std::string stmt;          ///< statement text (from trace b, else a)
  int64_t a_usec = 0;
  int64_t b_usec = 0;
  int64_t delta_usec = 0;    ///< b - a
  double ratio = 1.0;        ///< b / max(a, 1)
  bool critical_a = false;   ///< pc on trace a's critical path (plan given)
  bool critical_b = false;
};

/// Per-pc aligned comparison of two traces.
struct TraceDiff {
  uint64_t a_hash = 0;
  uint64_t b_hash = 0;
  bool shapes_match = false;
  int64_t a_makespan_usec = 0;
  int64_t b_makespan_usec = 0;
  /// Duration-weighted critical path per trace; -1 without a plan.
  int64_t a_critical_usec = -1;
  int64_t b_critical_usec = -1;
  std::vector<PcDelta> deltas;  ///< matched pcs, |delta| descending
  std::vector<int> only_a;      ///< pcs only trace a executed
  std::vector<int> only_b;
};

/// Aligns two traces by pc (statement text is cross-checked when both
/// sides carry it) and reports per-pc deltas sorted by absolute change.
/// With a plan, each trace is replayed through the happens-before model so
/// the critical-path delta can be called out — the plan must match the
/// traces' shape.
TraceDiff DiffTraces(const std::vector<profiler::TraceEvent>& a,
                     const std::vector<profiler::TraceEvent>& b,
                     const mal::Program* plan);

/// Human-readable diff report (`stethoscope diff`).
std::string FormatTraceDiff(const TraceDiff& diff);

}  // namespace stetho::analysis

#endif  // STETHO_ANALYSIS_PERFDIFF_H_
