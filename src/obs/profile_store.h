#ifndef STETHO_OBS_PROFILE_STORE_H_
#define STETHO_OBS_PROFILE_STORE_H_

#include <cstdint>
#include <cstdio>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"

namespace stetho::obs {

/// --- Cross-run performance baselining ---
///
/// The profile store folds every completed query into per-pc robust
/// statistics keyed by the plan's shape hash (the function-name-blind
/// content hash analysis::ProgressModelCache already uses), giving the
/// platform a memory of past runs: the live straggler comparator, the
/// server's slow-query log, and the trace-perf-regression lint check all
/// read baselines from here. The store lives in obs (it depends on nothing
/// but common) and speaks plain observations; extracting an observation
/// from a plan or trace is the analysis layer's job (analysis/perfdiff.h).

/// Count-weighted distribution over non-negative integer samples
/// (microseconds, bytes, slot counts) kept as a sparse fixed-log-bucket
/// histogram: bucket `round(8 * log2(v))` holds values within ~±4.5% of
/// `2^(i/8)`, so the structure is bounded, exactly mergeable (bucket-wise
/// add is associative and loss-free), and deterministic regardless of fold
/// order — the properties a streaming cross-run merge needs. Quantiles are
/// estimated at bucket centers; the ~9% bucket width is far below the 1.5×
/// ratios anything downstream alerts on.
class RobustStat {
 public:
  void Observe(int64_t value);
  void Merge(const RobustStat& other);

  int64_t count() const { return count_; }
  int64_t sum() const { return sum_; }
  int64_t min() const { return count_ > 0 ? min_ : 0; }
  int64_t max() const { return max_; }

  /// Weighted quantile (q in [0,1]) at bucket centers; 0 when empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  /// Median absolute deviation from the median, over bucket centers —
  /// the robust spread the `median + k·MAD` comparators use.
  double Mad() const;

  /// "count,sum,min,max[,bucket:count]*" — the journal's stat token.
  std::string Serialize() const;
  /// Strict parse of Serialize() output; false on any malformed token.
  static bool Parse(const std::string& text, RobustStat* out);

  bool operator==(const RobustStat& other) const {
    return count_ == other.count_ && sum_ == other.sum_ &&
           min_ == other.min_ && max_ == other.max_ &&
           buckets_ == other.buckets_;
  }

 private:
  int64_t count_ = 0;
  int64_t sum_ = 0;
  int64_t min_ = 0;
  int64_t max_ = 0;
  std::map<int, int64_t> buckets_;  // sparse: log bucket -> observations
};

/// --- The regression rule ---
///
/// An observed duration regresses against a baseline distribution when both
/// gates below hold. The trace-perf-regression lint (per pc and for the
/// makespan) and the online monitor's straggler flags apply this one rule,
/// so live and offline agree.

/// Ratio gate: observed / max(1us, median) reaches this. RobustStat's
/// bucket-center quantiles are within ~4.5%, far below it, so
/// re-recordings of an unchanged workload stay quiet. The 1us floor keeps
/// a sub-microsecond median from inflating the ratio.
inline constexpr double kRegressionRatio = 1.5;
/// The lint reports an error instead of a warning from this ratio on: the
/// work took at least twice its usual time.
inline constexpr double kRegressionErrorRatio = 2.0;
/// Excess gate: observed - median reaches max(kRegressionMadK * MAD,
/// kRegressionMinUsec). The MAD term scales with the baseline's own
/// spread; the floor absorbs timer jitter on microsecond-scale kernels,
/// whose ratio alone swings past 1.5x.
inline constexpr double kRegressionMadK = 4.0;
inline constexpr int64_t kRegressionMinUsec = 10;

/// observed_usec / max(1, median) when the observation regresses against a
/// baseline with this median and MAD; nullopt otherwise. Callers skip
/// empty baselines.
std::optional<double> RegressionRatio(int64_t observed_usec, double median,
                                      double mad);

/// One instruction's measurements from a single completed query.
struct PcSample {
  int pc = 0;
  int64_t usec = 0;      ///< instruction duration
  int64_t bytes = 0;     ///< engine live bytes after completion (0 = unknown)
  int concurrency = 1;   ///< instructions in flight when this one started
};

/// Everything one completed query contributes to the store.
struct QueryObservation {
  uint64_t shape_hash = 0;  ///< analysis::PlanShapeHash of the executed plan
  size_t plan_size = 0;
  int64_t total_usec = 0;   ///< end-to-end wall time
  std::vector<PcSample> pcs;
};

/// Per-pc robust statistics for one plan shape.
struct PcStats {
  RobustStat usec;
  RobustStat bytes;
  RobustStat concurrency;
};

/// The folded baseline for one plan shape across every observed run.
struct PlanProfile {
  uint64_t shape_hash = 0;
  size_t plan_size = 0;
  int64_t queries = 0;      ///< observations folded in
  RobustStat total_usec;    ///< end-to-end distribution
  std::vector<PcStats> pcs;  ///< indexed by pc

  void Fold(const QueryObservation& observation);
  void Merge(const PlanProfile& other);
};

struct ProfileStoreOptions {
  /// Directory holding the append-only journal (profile.journal). "" keeps
  /// the store in-memory only.
  std::string dir;
  /// Plan shapes kept in memory; least recently touched shapes are evicted
  /// (the journal retains their history for the next load).
  size_t capacity = 256;
};

/// Process-wide persistable profile store. Fold() merges an observation
/// into the in-memory profile for its shape and appends one journal record;
/// loading replays the journal (tolerating corrupt lines) and rewrites it
/// compacted to one aggregate record per shape. Thread-safe; deterministic
/// — no clocks, no randomness, output sorted by shape hash.
///
/// Metrics: stetho_profile_store_{queries,loads,evictions}_total and
/// stetho_profile_store_corrupt_lines_total.
class ProfileStore {
 public:
  explicit ProfileStore(ProfileStoreOptions options = {});
  ~ProfileStore();

  ProfileStore(const ProfileStore&) = delete;
  ProfileStore& operator=(const ProfileStore&) = delete;

  /// Merges one completed query into its shape's profile (journal-appended
  /// when a directory is configured). Observations with no shape hash are
  /// rejected; an unknown shape starts a fresh profile.
  Status Fold(const QueryObservation& observation);

  /// Immutable snapshot of the shape's profile, or nullptr when the store
  /// has never seen it. Refreshes the shape's LRU position. The snapshot is
  /// the stored profile itself, not a copy: while it is alive, a Fold or
  /// load into the same shape writes a fresh copy (copy on write), so the
  /// snapshot never changes.
  std::shared_ptr<const PlanProfile> Lookup(uint64_t shape_hash) const;

  /// Merges the records of `path` into memory. Corrupt lines are skipped
  /// and counted, never fatal; only an unreadable file is an error.
  Status LoadFile(const std::string& path);

  /// Writes every in-memory profile as one compacted record per shape,
  /// sorted by shape hash.
  Status SaveFile(const std::string& path) const;

  /// Points the store at `dir`: loads dir/profile.journal when present,
  /// rewrites it compacted, and appends subsequent folds to it.
  Status OpenDir(const std::string& dir);

  size_t size() const;
  int64_t corrupt_lines() const;

  /// Process-wide store: honors STETHO_PROFILE_DIR on first use (a load
  /// failure leaves the store in-memory; the corrupt-line counter tells).
  static ProfileStore* Default();

 private:
  Status FoldLocked(const QueryObservation& observation);
  /// The shape's profile for writing (created when absent, LRU touched),
  /// unshared from any Lookup snapshot first.
  PlanProfile* WritableLocked(uint64_t shape_hash);
  void TouchLocked(uint64_t shape_hash) const;
  void EvictLocked();
  Status ParseLine(const std::string& line);
  Status AppendJournalLocked(const QueryObservation& observation);

  const size_t capacity_;
  mutable std::mutex mu_;
  std::map<uint64_t, std::shared_ptr<PlanProfile>> profiles_;
  mutable std::list<uint64_t> lru_;  // most recently touched first
  std::string journal_path_;         // "" = in-memory only
  std::FILE* journal_ = nullptr;
  int64_t corrupt_lines_ = 0;
};

}  // namespace stetho::obs

#endif  // STETHO_OBS_PROFILE_STORE_H_
