#ifndef STETHO_ANALYSIS_HB_H_
#define STETHO_ANALYSIS_HB_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/trace_index.h"
#include "mal/program.h"

namespace stetho::analysis {

/// Happens-before analysis over one executed plan: the static SSA def/use
/// DAG joined with the observed profiler trace. The trace is replayed
/// through per-thread vector clocks (FastTrack-style, applied at the
/// dataflow-plan level instead of the memory level): an event's clock
/// captures everything that provably happened before it under
///   (a) admission-slot order — events stamped with the same trace thread
///       id (the query-local admission slot) are totally ordered by the
///       profiler's global sequence number, and
///   (b) dependency edges — a producer's done event synchronizes with each
///       consumer's start event, but ONLY when the trace actually shows the
///       done preceding the start; an edge the observed schedule violated
///       contributes no ordering (it did not synchronize), which is exactly
///       what lets the write-race check see the two accesses as concurrent.
///
/// The same replay extracts the DAG critical path weighted by observed
/// kernel durations, so one pass yields both the correctness findings
/// (checks_hb.cc) and the makespan-vs-critical-path accounting surfaced by
/// `mal_lint --schedule` and the `stetho_hb_*` metrics.

/// Vector clock over the dense thread index space of one trace. Component
/// `t` counts events replayed on thread index `t`.
class VectorClock {
 public:
  VectorClock() = default;
  explicit VectorClock(size_t num_threads) : ticks_(num_threads, 0) {}

  void Tick(size_t t) { ++ticks_[t]; }
  /// Componentwise max: after Join(o), *this dominates both inputs.
  void Join(const VectorClock& other);
  /// True when every component of *this is <= the matching component of
  /// `other` — the "happened before or equals" test. Clocks of different
  /// width compare as if padded with zeros.
  bool LessEq(const VectorClock& other) const;

  int64_t tick(size_t t) const {
    return t < ticks_.size() ? ticks_[t] : 0;
  }
  size_t size() const { return ticks_.size(); }
  bool empty() const { return ticks_.empty(); }

 private:
  std::vector<int64_t> ticks_;
};

/// Observed execution interval of one pc, joined from its first start/done
/// event pair. Indexes are positions in the event-sequence order (the
/// profiler's global `event` number restores emission order after UDP
/// reordering); -1 means the event was never seen.
struct PcExecution {
  int pc = -1;
  int start_thread = -1;
  int done_thread = -1;
  int64_t start_index = -1;
  int64_t done_index = -1;
  int64_t start_us = 0;
  int64_t done_us = 0;
  int64_t usec = 0;  ///< duration reported by the done event
  VectorClock start_vc;
  VectorClock done_vc;

  bool started() const { return start_index >= 0; }
  bool completed() const { return done_index >= 0; }
};

/// One dependency edge the observed schedule did not respect: consumer `pc`
/// started although producer `producer` had not finished (or never finished
/// at all — `producer_done_missing`).
struct DependencyViolation {
  int pc = -1;
  int producer = -1;
  bool producer_done_missing = false;
};

struct CriticalPathStep {
  int pc = -1;
  int64_t usec = 0;
};

/// Everything one replay learns about the schedule.
struct ScheduleReport {
  /// Per-pc observed intervals, indexed by pc (size == program size).
  std::vector<PcExecution> executions;
  /// Dependency edges violated by the observed event order.
  std::vector<DependencyViolation> violations;
  /// Plan pcs whose first done event precedes their first start event, or
  /// that have no start at all (PcEvents::inverted), ascending — an interval
  /// running backwards (swapped or duplicated events).
  std::vector<int> inverted;
  /// Plan pcs with surplus start or done events (PcEvents::repeated),
  /// ascending, each listed once. The replay models the first pair only;
  /// extra executions break the one-pair contract the happens-before model
  /// is built on.
  std::vector<int> duplicates;
  /// Distinct trace thread ids, in dense-index order (vector clock space).
  std::vector<int> threads;

  int64_t events = 0;          ///< trace events replayed
  double avg_indegree = 0;     ///< dependency edges per instruction
  /// Width of the largest longest-path layer of the DAG — the number of
  /// instructions the plan admits running concurrently.
  int plan_width = 0;
  /// Max pcs simultaneously open (started, not done) in event order: the
  /// index's peak_open(), which counts out-of-plan pcs too.
  int max_observed_concurrency = 0;
  int completed_executions = 0;

  /// Critical path through the def/use DAG, each node weighted by its
  /// observed duration (0 for instructions the trace never completed),
  /// rendered source-to-sink. Empty for an empty plan.
  std::vector<CriticalPathStep> critical_path;
  int64_t critical_path_usec = 0;
  /// The index's Makespan(): latest first-done minus earliest first-start
  /// timestamp over every pc (0 when nothing ran).
  int64_t makespan_usec = 0;
  /// makespan - critical path: scheduling headroom the run left on the
  /// table. Negative slack means the trace clock and durations disagree.
  int64_t slack_usec = 0;
};

/// Replays `trace` against `program`, whose def-use index is `deps`
/// (Program::BuildDependencies), and returns the schedule report. Each pc's
/// first pair, its surplus events, the open-pair peak and the makespan are
/// the index's; the replay adds the vector clocks. Cost is
/// O(events * avg-indegree): one pass over the events in the index's
/// emission order, each start joining its producers' clocks. Also updates
/// the `stetho_hb_*` metrics in obs::Registry::Default() (replays/events/
/// violations counters plus critical-path, makespan, and slack gauges).
ScheduleReport AnalyzeSchedule(const mal::Program& program,
                               const mal::Dependencies& deps,
                               const TraceIndex& trace);

/// True when `a`'s completion happens-before `b`'s start under the replayed
/// relation. Incomplete executions are unordered against everything.
bool HappensBefore(const PcExecution& a, const PcExecution& b);

/// Human-readable schedule report (mal_lint --schedule): makespan, critical
/// path with per-step durations and statements, slack, plan width vs
/// observed concurrency.
std::string FormatScheduleReport(const ScheduleReport& report,
                                 const mal::Program& program);

}  // namespace stetho::analysis

#endif  // STETHO_ANALYSIS_HB_H_
