#ifndef STETHO_SERVER_MSERVER_H_
#define STETHO_SERVER_MSERVER_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "analysis/progress.h"
#include "common/clock.h"
#include "common/status.h"
#include "engine/interpreter.h"
#include "engine/prepared_plan.h"
#include "mal/program.h"
#include "net/datagram.h"
#include "obs/metrics.h"
#include "obs/profile_store.h"
#include "optimizer/pass.h"
#include "profiler/profiler.h"
#include "profiler/sink.h"
#include "sql/compiler.h"
#include "storage/table.h"

namespace stetho::server {

/// Server configuration.
struct MserverOptions {
  /// Degree of parallelism for dataflow execution (0 = engine::DefaultDop()).
  int dop = 0;
  /// Mitosis partitions applied by the optimizer pipeline (0/1 = off).
  int mitosis_pieces = 0;
  /// Force sequential interpretation (reproduces the paper's "sequential
  /// execution where multithreaded execution was expected" anomaly).
  bool force_sequential = false;
  /// Memory budget for admission control, in bytes. 0 falls back to the
  /// STETHO_MEM_BUDGET environment variable; if that is unset too,
  /// admission is a no-op (every query admits). With a budget, the server
  /// predicts each optimized plan's peak footprint (the static parallel
  /// bound from analysis/liveness.h at the server's dop): a prediction
  /// above the budget is rejected with ResourceExhausted; one that fits
  /// the budget but not the engine's current headroom queues until
  /// running queries release memory (or `admission_wait_ms` elapses).
  int64_t mem_budget_bytes = 0;
  /// How long a queued query waits for headroom before giving up.
  int admission_wait_ms = 200;
  /// Cross-run profile store every completed query folds into (per-pc
  /// robust baselines keyed by plan-shape hash); nullptr = the
  /// process-wide obs::ProfileStore::Default(), which persists under
  /// STETHO_PROFILE_DIR when set.
  obs::ProfileStore* profile_store = nullptr;
  /// Slow-query gate: a completed query whose end-to-end time exceeds this
  /// multiple of its shape's profiled median (from runs folded *before*
  /// this one) is counted in stetho_slow_queries_total and, when a flight
  /// directory is configured, gets a postmortem bundle (plan + recent
  /// trace events + flight-recorder spans + metrics snapshot). <= 0
  /// disables the gate.
  double slow_query_factor = 3.0;
  /// Directory receiving slow-query postmortem bundles
  /// ("" = the STETHO_FLIGHT_DIR environment variable; if that is unset
  /// too, no bundles are written). Configuring a directory also attaches a
  /// profiler ring sink so bundles carry the query's recent events.
  std::string flight_dir;
  /// Time source (nullptr = process steady clock).
  Clock* clock = nullptr;
};

/// Everything a query execution produced.
struct QueryOutcome {
  std::string name;            ///< server-assigned query name ("s0", "s1"...)
  std::string sql;
  /// The prepared plan that actually ran; its program is the optimized MAL
  /// plan, named "user.<name>".
  std::shared_ptr<const engine::PreparedPlan> plan;
  std::string dot;             ///< the plan's dot file (emitted pre-run)
  engine::QueryResult result;
};

/// The MonetDB server substitute: owns a catalog, compiles SQL to MAL,
/// optimizes, emits the plan's dot file, and interprets the plan under the
/// MAL profiler. Stethoscope clients attach trace sinks (file, ring buffer,
/// UDP stream) and set filter options remotely.
///
/// Thread-safety: ExecuteSql and ExecutePlan may be called from any thread;
/// each call runs independently. Profiler/stream configuration is internally synchronized.
class Mserver {
 public:
  /// Starts a server over an already-loaded catalog.
  Mserver(storage::Catalog catalog, const MserverOptions& options);

  /// --- client API ---

  /// Compiles + optimizes `sql` without executing (EXPLAIN). Returns the
  /// optimized plan.
  Result<mal::Program> Explain(const std::string& sql) const;

  /// Explain, then names the plan for a fresh query ("user.sN") and
  /// prepares it: the one place a query's statements are rendered, its
  /// shape hashed and its kernels resolved. Every later step of the query
  /// (dot, progress model, execution, profile fold, a monitor's baseline)
  /// reads the result.
  Result<std::shared_ptr<const engine::PreparedPlan>> Prepare(
      const std::string& sql);

  /// Runs a query end to end: Prepare, then ExecutePlan.
  Result<QueryOutcome> ExecuteSql(const std::string& sql);

  /// Runs `plan`, the Prepare result for `sql`, under the query name it
  /// was prepared with. Before execution the plan's dot file is emitted to
  /// all attached streams (paper §4.2); trace events follow during
  /// execution; an EOF marker closes the query.
  Result<QueryOutcome> ExecutePlan(
      std::shared_ptr<const engine::PreparedPlan> plan,
      const std::string& sql);

  /// --- profiler / stream control (what the textual Stethoscope drives) ---

  profiler::Profiler* profiler() { return &profiler_; }

  /// Attaches an outgoing event stream (UDP sender or in-process channel).
  /// Dot files and EOF markers for subsequent queries go to the same stream.
  void AttachStream(std::shared_ptr<net::DatagramSender> sender);
  void DetachStreams();

  /// Applies a serialized filter (EventFilter::Serialize format) —
  /// "The profiler accepts filter options set through Stethoscope".
  Status SetProfilerFilter(const std::string& serialized);

  /// Server-side metrics dump command: the process-wide registry in
  /// Prometheus text exposition format (pool, kernel, optimizer, profiler,
  /// and net counters), for clients that poll server health the way
  /// Stethoscope polls the event stream. A comment footer carries the
  /// estimated p50/p95/p99 of every populated histogram.
  std::string MetricsText() const;

  /// Live query-progress scoreboard next to MetricsText(): one line per
  /// tracked query (running and recently finished, newest last) with the
  /// model-weighted completion ratio and remaining-critical-path ETA from
  /// analysis::ProgressEstimator. The estimator is fed in-process through
  /// engine::ExecOptions::progress, so the scoreboard works with no
  /// profiler sink attached.
  std::string ProgressText() const;

  storage::Catalog* catalog() { return &catalog_; }
  const MserverOptions& options() const { return options_; }
  Clock* clock() const { return clock_; }

 private:
  /// The store completed queries fold into (options override or process
  /// default).
  obs::ProfileStore* profile_store() const;

  /// Post-run bookkeeping: folds the finished query into the profile store
  /// and, when its end-to-end time blows past the pre-fold baseline median
  /// by options_.slow_query_factor, logs it and emits a postmortem bundle.
  void RecordQueryProfile(const QueryOutcome& outcome,
                          const analysis::ProgressEstimator& estimator);

  /// Budgeted admission (called between optimize and execute): predicts the
  /// plan's peak footprint and admits, queues, or rejects against the
  /// configured budget. Exports stetho_admission_{admitted,queued,rejected}_total
  /// and stetho_mem_predicted_peak_bytes.
  Status AdmitForMemory(const engine::PreparedPlan& plan) const;

  storage::Catalog catalog_;
  MserverOptions options_;
  Clock* clock_;
  profiler::Profiler profiler_;
  std::atomic<int> next_query_{0};

  /// Resolved postmortem directory ("" = disabled) and the ring of recent
  /// profiler events bundles snapshot from (attached only when enabled).
  std::string flight_dir_;
  std::shared_ptr<profiler::RingBufferSink> postmortem_ring_;

  std::mutex stream_mu_;
  std::vector<std::shared_ptr<net::DatagramSender>> streams_;

  /// Progress scoreboard: the last few queries' estimators, newest last.
  /// Estimators are shared_ptr because a query thread updates its
  /// estimator while ProgressText() reads it.
  mutable std::mutex progress_mu_;
  std::vector<std::pair<std::string,
                        std::shared_ptr<analysis::ProgressEstimator>>>
      progress_;
};

}  // namespace stetho::server

#endif  // STETHO_SERVER_MSERVER_H_
