#ifndef STETHO_ANALYSIS_PROGRESS_H_
#define STETHO_ANALYSIS_PROGRESS_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/interpreter.h"
#include "mal/program.h"
#include "obs/profile_store.h"
#include "profiler/event.h"

namespace stetho::analysis {

/// --- Live query progress / ETA ---
///
/// Turns the static analyses already in-tree into a runtime signal: the
/// liveness byte model (liveness.h, itself fed by absint cardinalities)
/// prices each instruction's work, the SSA dependency DAG gives the
/// critical path, and the observed done-events (engine hook or received
/// trace stream) fill in what actually completed. The ISSUE names this
/// layer scope::ProgressEstimator; it lives in analysis because both the
/// server (Mserver::ProgressText) and the scope monitor consume it, and
/// scope already depends on server.

/// Immutable per-plan work model shared by every run of the same plan
/// shape. Each instruction's weight is 1 + the KiB it touches (argument
/// bytes + modeled result bytes, both from AnalyzeMemory, clamped so an
/// unbounded cardinality cannot drown the rest of the plan); kernel time
/// is roughly linear in bytes moved, so weight is a time proxy good enough
/// for ratios. Thread-safe by construction (no mutable state).
class ProgressModel {
 public:
  /// Builds the model: one absint + liveness sweep plus a longest-path DP
  /// over the prepared plan's def-use index, which the model copies (it
  /// outlives the plan in its cache). Cost is O(plan size) on top of
  /// AnalyzeMemory — use ProgressModelCache to pay it once per plan shape.
  static std::shared_ptr<const ProgressModel> Build(
      const engine::PreparedPlan& plan);

  size_t plan_size() const { return weight_.size(); }
  double weight(int pc) const { return weight_[static_cast<size_t>(pc)]; }
  double total_weight() const { return total_weight_; }
  /// Weight of the heaviest dependency chain — the work that cannot be
  /// parallelized away, the ETA's floor.
  double critical_path_weight() const { return critical_weight_; }

  /// Heaviest dependency chain counting only not-yet-done instructions
  /// (`done[pc]` true = completed). O(V + E).
  double RemainingCriticalWeight(const std::vector<bool>& done) const;

 private:
  ProgressModel() = default;

  std::vector<double> weight_;
  mal::Dependencies deps_;
  double total_weight_ = 0;
  double critical_weight_ = 0;
};

/// Content-hash LRU over ProgressModel, keyed on the prepared plan's shape
/// hash (the function name is excluded — the server renames each query
/// "user.sN", and identical plan shapes must share one model). Mirrors
/// layout::LayoutCache's role for the front end. Thread-safe.
class ProgressModelCache {
 public:
  explicit ProgressModelCache(size_t capacity = 32) : capacity_(capacity) {}

  /// Returns the cached model for `plan`'s shape, building it on miss.
  std::shared_ptr<const ProgressModel> GetOrBuild(
      const engine::PreparedPlan& plan);

  int64_t hits() const;
  int64_t misses() const;

  /// Process-wide instance the server and monitor share.
  static ProgressModelCache* Default();

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::list<uint64_t> lru_;  // most recent first
  std::map<uint64_t, std::shared_ptr<const ProgressModel>> models_;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
};

/// Live progress/ETA for one query run, combining a ProgressModel with
/// observed done-events — either in-process (engine::ProgressListener,
/// wired via ExecOptions::progress) or from a received trace stream
/// (ObserveEvent). Publishes stetho_query_progress_ratio (millionths;
/// gauges are integral) on every update.
///
/// The ratio is completed weight / total weight, clamped monotone: under
/// a lossy stream, done-events may vanish, so the published series never
/// regresses and MarkFinished() pins it at 1.0 when the query is known
/// complete. Thread-safe; O(1) per done-event.
class ProgressEstimator : public engine::ProgressListener {
 public:
  explicit ProgressEstimator(std::shared_ptr<const ProgressModel> model);

  /// engine::ProgressListener — fed by the interpreter with the clock
  /// reads it already pays for its stats.
  void OnInstructionDone(int pc, int64_t usec, int64_t now_us,
                         int64_t rss_bytes) override;

  /// Receiver-side feed: accounts a trace event (done-state events only;
  /// start events and out-of-range pcs are ignored).
  void ObserveEvent(const profiler::TraceEvent& event);

  /// The query completed: progress becomes exactly 1.0 regardless of how
  /// many done-events the transport delivered.
  void MarkFinished();

  /// Monotone completion ratio in [0, 1].
  double ratio() const;
  bool finished() const;
  /// Done-events observed (distinct pcs).
  int done_count() const;
  /// Observed event-time span between the first and the newest done-event.
  int64_t elapsed_usec() const;

  /// Estimated microseconds to completion: the larger of
  ///  - throughput extrapolation (elapsed x remaining/completed weight) and
  ///  - the remaining critical path priced at the observed cost per unit
  ///    weight (the floor no parallelism can beat).
  /// -1 until the first done-event; 0 once finished.
  int64_t EtaUsec() const;

  /// One scoreboard line: "s0  42.3%  131/260 done  eta 1.2ms  ...".
  std::string ScoreboardLine(const std::string& name) const;

  /// Everything this run contributed, packaged for the profile store:
  /// per-pc duration/bytes plus observed concurrency (a sweep over the
  /// recorded completion intervals). total_usec is the observed event-time
  /// span; callers who know the true end-to-end time should overwrite it.
  /// The estimator keeps accepting events afterwards — this is a snapshot.
  obs::QueryObservation ToObservation(uint64_t shape_hash) const;

  /// Duration of `pc`'s completion (-1 = not yet observed).
  int64_t PcUsec(int pc) const;

 private:
  double RatioLocked() const;

  const std::shared_ptr<const ProgressModel> model_;
  mutable std::mutex mu_;
  std::vector<bool> done_;
  std::vector<int64_t> pc_usec_;    // per-pc durations; -1 = unseen
  std::vector<int64_t> pc_end_us_;  // per-pc completion event time
  std::vector<int64_t> pc_rss_;     // per-pc live bytes at completion
  int done_count_ = 0;
  double done_weight_ = 0;
  double busy_usec_ = 0;     // sum of observed instruction durations
  int64_t first_us_ = -1;    // event time of the first observed done
  int64_t newest_us_ = 0;    // event time of the newest observed done
  mutable double max_ratio_ = 0;  // monotonicity clamp
  bool finished_ = false;
};

}  // namespace stetho::analysis

#endif  // STETHO_ANALYSIS_PROGRESS_H_
