#ifndef STETHO_SCOPE_ONLINE_H_
#define STETHO_SCOPE_ONLINE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "analysis/progress.h"
#include "common/clock.h"
#include "common/status.h"
#include "net/fault_injection.h"
#include "net/pipe_health.h"
#include "scope/analysis.h"
#include "scope/coloring.h"
#include "scope/replayer.h"
#include "scope/textual.h"
#include "server/mserver.h"

namespace stetho::scope {

/// Options for an online monitoring session.
struct OnlineOptions {
  /// Time source for the dot-arrival deadline and the monitor's waits;
  /// nullptr = steady clock. Tests pass a VirtualClock to drive the
  /// timeout deterministically (a virtual wait advances it and returns).
  Clock* clock = nullptr;
  /// Stream wait: how long to wait for the server to push the plan's dot
  /// file (its lines packed into a few datagrams, see net/trace_stream.h)
  /// before giving up, and, once the query has returned, for its %EOF
  /// before concluding on the events received so far. The monitor wakes
  /// as soon as the dot completes or the %EOF arrives; it does not poll.
  int64_t dot_timeout_us = 30'000'000;
  /// EDT render pacing (the paper's 150 ms Java limitation).
  int64_t render_interval_us = 150000;
  /// Sampling-buffer analysis period: the monitoring thread re-runs the
  /// pair-sequence algorithm at least this often while the query runs.
  /// It is an upper bound on every wait, not a floor on query latency:
  /// the dot completing and the %EOF end a wait early, arriving trace
  /// events do not.
  int64_t analysis_period_us = 20000;
  /// Client-side filter.
  profiler::EventFilter filter;
  /// Trace file the textual stethoscope redirects the stream into
  /// ("" = memory only).
  std::string trace_path;
  /// Transport faults injected between server and monitor (seeded; see
  /// net::FaultInjectingSender). All-zero probabilities = clean wire. The
  /// injector's exact counts land in OnlineReport::injected_* so tests can
  /// hold the receiver's accounting to them.
  net::FaultOptions fault;
  /// Called once per analysis round with a one-line live status (progress,
  /// ETA, pipe health) — the `stethoscope --watch` hook. May be empty.
  std::function<void(const std::string&)> status_line;
  /// Cross-run baseline store for live straggler detection (nullptr = the
  /// process-wide obs::ProfileStore::Default()). When the monitored plan's
  /// shape has a stored profile, every analysis round compares each
  /// instruction's completed — or still-running — duration against the
  /// baseline by obs::RegressionRatio and flags stragglers: the glyph gets
  /// a magenta deviation stroke, the status line appends "stragglers:N",
  /// and OnlineReport::stragglers records the flags.
  obs::ProfileStore* profile = nullptr;
};

/// One instruction flagged by the live straggler comparator.
struct StragglerFlag {
  int pc = 0;
  int64_t usec = 0;          ///< duration at flag time (running or final)
  double baseline_median = 0;
  bool completed = false;    ///< false = flagged while still running
};

/// Result of monitoring one query online.
struct OnlineReport {
  server::QueryOutcome outcome;            ///< the query's server-side result
  std::string dot;                         ///< dot received over the stream
  size_t graph_nodes = 0;
  std::vector<profiler::TraceEvent> events;  ///< trace as received (sampled)
  int64_t events_received = 0;
  int64_t events_filtered = 0;
  size_t analysis_rounds = 0;              ///< buffer analyses performed
  size_t color_updates = 0;                ///< node color changes posted
  /// Progress estimate captured at every analysis round — the data behind
  /// the demo's "monitor the progress of query plan execution" window.
  /// Model-weighted (analysis::ProgressEstimator) and clamped monotone;
  /// ends at exactly 1.0 even when a lossy wire ate done-events.
  std::vector<double> progress_series;
  /// ETA captured alongside each progress sample (-1 until estimable).
  std::vector<int64_t> eta_series_usec;
  ParallelismDiagnosis parallelism;
  double final_progress = 0;
  /// Delivery health of the monitored stream (sequence-gap accounting),
  /// finalized — pending gaps have settled into `lost`.
  net::PipeHealthSummary pipe_health;
  /// Exact injected-fault counts when OnlineOptions::fault was active.
  int64_t injected_dropped = 0;
  int64_t injected_duplicated = 0;
  int64_t injected_reordered = 0;
  /// Instructions the baseline comparator flagged, in flag order (one entry
  /// per pc; a flag fired mid-run is not re-reported at completion).
  std::vector<StragglerFlag> stragglers;
  /// Magenta deviation-stroke overlays posted to the scene.
  size_t straggler_updates = 0;
};

/// Online mode (paper §4.2): multi-threaded pipeline wiring a running
/// Mserver to live plan-graph coloring.
///
///  - the textual Stethoscope listens for the UDP stream in its own thread;
///  - the query is launched in a separate thread;
///  - the dot file arrives over the stream before execution and is turned
///    into the in-memory graph + glyph scene;
///  - a monitoring thread samples the trace buffer and applies the
///    pair-sequence coloring algorithm (§4.2.1) through the render-paced
///    event-dispatch thread.
class OnlineMonitor {
 public:
  OnlineMonitor(server::Mserver* server, OnlineOptions options)
      : server_(server), options_(std::move(options)) {}

  /// Monitors one query end-to-end and returns the full report.
  Result<OnlineReport> MonitorQuery(const std::string& sql);

  /// The replayer-equivalent scene of the last monitored query (valid after
  /// MonitorQuery returns OK); exposes the colored glyph space, camera,
  /// tooltips...
  OfflineReplayer* scene() { return scene_.get(); }

 private:
  server::Mserver* server_;
  OnlineOptions options_;
  std::unique_ptr<OfflineReplayer> scene_;
};

}  // namespace stetho::scope

#endif  // STETHO_SCOPE_ONLINE_H_
