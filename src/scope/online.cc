#include "scope/online.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <thread>

#include "common/string_util.h"
#include "dot/parser.h"
#include "engine/worker_pool.h"
#include "net/channel.h"

namespace stetho::scope {

using profiler::TraceEvent;

Result<OnlineReport> OnlineMonitor::MonitorQuery(const std::string& sql) {
  OnlineReport report;
  Clock* clock =
      options_.clock != nullptr ? options_.clock : SteadyClock::Default();

  // Wire the server's profiler stream into a textual Stethoscope. The demo
  // runs single-process, so an in-process channel stands in for the UDP
  // loopback pair (the UDP path is exercised separately; both implement
  // DatagramSender/Receiver).
  auto [sender, receiver] = net::Channel::CreatePair();
  TextualOptions topt;
  topt.trace_path = options_.trace_path;
  topt.filter = options_.filter;
  topt.clock = options_.clock;
  // Incremental §4.2.1 analysis: the listener feeds every accepted event
  // into the tracker as it arrives, so each analysis round applies only the
  // newly settled verdicts instead of re-deriving the full set from a
  // buffer rescan. Declared before `textual` so the callback's referents
  // outlive the listener threads its destructor joins on error paths.
  std::mutex tracker_mu;
  PairSequenceTracker tracker;

  // The query is compiled and prepared once: the prepared plan prices the
  // live progress/ETA model, keys the straggler baseline, and is what the
  // query thread below runs.
  STETHO_ASSIGN_OR_RETURN(std::shared_ptr<const engine::PreparedPlan> plan,
                          server_->Prepare(sql));
  // Received done-events fill in the plan's work model.
  auto estimator = std::make_shared<analysis::ProgressEstimator>(
      analysis::ProgressModelCache::Default()->GetOrBuild(*plan));
  // Straggler comparator: each pc's duration median and MAD from the
  // stored cross-run profile of this plan's shape, if the profile store has
  // one. They are read once and the snapshot is dropped, so the server's
  // fold at the end of this query updates the stored profile in place
  // rather than copying it. The estimator's start times feed the
  // running-duration check (an instruction can be flagged before it
  // completes).
  obs::ProfileStore* store = options_.profile != nullptr
                                 ? options_.profile
                                 : obs::ProfileStore::Default();
  struct PcBaseline {
    int64_t runs = 0;
    double median = 0;
    double mad = 0;
  };
  std::optional<std::vector<PcBaseline>> baseline;
  if (std::shared_ptr<const obs::PlanProfile> profile =
          store->Lookup(plan->shape_hash())) {
    baseline.emplace();
    baseline->reserve(profile->pcs.size());
    for (const obs::PcStats& stats : profile->pcs) {
      baseline->push_back(
          {stats.usec.count(), stats.usec.Median(), stats.usec.Mad()});
    }
  }

  TextualStethoscope textual(topt);
  textual.SetEventCallback(
      [&](const std::string& /*server*/, const TraceEvent& event) {
        estimator->ObserveEvent(event);
        std::lock_guard<std::mutex> lock(tracker_mu);
        tracker.Observe(event);
      });

  STETHO_RETURN_IF_ERROR(textual.AddServer("server0", std::move(receiver)));
  std::shared_ptr<net::DatagramSender> wire(std::move(sender));
  std::shared_ptr<net::FaultInjectingSender> injector;
  if (options_.fault.drop_p > 0 || options_.fault.dup_p > 0 ||
      options_.fault.reorder_p > 0) {
    injector =
        std::make_shared<net::FaultInjectingSender>(wire, options_.fault);
    wire = injector;
  }
  server_->AttachStream(wire);
  const net::DatagramSender* stream = wire.get();

  // Launch the query in its own thread (paper §4.2: "The query whose
  // execution plan needs to be analyzed is launched next in a separate
  // thread").
  Status query_status;
  server::QueryOutcome outcome;
  std::atomic<bool> query_done{false};
  std::thread query_thread([&] {
    auto r = server_->ExecutePlan(plan, sql);
    if (r.ok()) {
      outcome = std::move(r).value();
    } else {
      query_status = r.status();
    }
    query_done.store(true, std::memory_order_release);
  });

  // The dot file is a prerequisite for graph-structure generation; the
  // server pushes it over the stream before execution begins.
  std::string query_name;
  std::string dot_text;
  const int64_t deadline = clock->NowMicros() + options_.dot_timeout_us;
  while (true) {
    // Read before the checks below, so a dot completing after them ends
    // the wait at once.
    const uint64_t seen = textual.changes();
    auto dots = textual.CompletedDots();
    if (!dots.empty()) {
      query_name = dots.back();
      auto dot = textual.DotFor(query_name);
      if (dot.ok()) {
        dot_text = std::move(dot).value();
        break;
      }
    }
    // A failed compilation never emits a dot file — surface the error
    // instead of waiting out the deadline. A *successful* query may finish
    // before the listener thread has drained the channel, so only a
    // processed %EOF with no completed dot proves the server never sent
    // one (delivery is ordered: dot, trace events, EOF). The dot check
    // must come *after* the %EOF check: the listener may process both
    // between our reads, and re-reading the dots second means an observed
    // EOF with no dot cannot be a stale view.
    if (query_done.load(std::memory_order_acquire)) {
      if (!query_status.ok()) {
        query_thread.join();
        server_->DetachStream(stream);
        return query_status;
      }
      if (!textual.FinishedQueries().empty() &&
          textual.CompletedDots().empty()) {
        query_thread.join();
        server_->DetachStream(stream);
        return Status::Internal("query finished without emitting a dot file");
      }
    }
    const int64_t now = clock->NowMicros();
    if (now > deadline) {
      query_thread.join();
      server_->DetachStream(stream);
      if (!query_status.ok()) return query_status;
      return Status::Internal("no dot file received from the server stream");
    }
    // Woken when the dot completes; the period bounds the wait so that a
    // query failing before it sends one is noticed.
    textual.WaitForChange(
        seen, std::min(options_.analysis_period_us, deadline - now + 1));
  }

  // The parsed graph moves into the scene and the text into the report:
  // neither is copied.
  STETHO_ASSIGN_OR_RETURN(dot::Graph graph, dot::ParseDot(dot_text));
  report.dot = std::move(dot_text);
  report.graph_nodes = graph.num_nodes();

  ReplayOptions scene_options;
  scene_options.clock = options_.clock;
  scene_options.render_interval_us = options_.render_interval_us;
  STETHO_ASSIGN_OR_RETURN(
      scene_, OfflineReplayer::Create(std::move(graph), {}, scene_options));

  // Monitoring loop: sample the buffer, run the §4.2.1 pair-sequence
  // algorithm, and paint color changes through the scene, whose EDT paces
  // them.
  std::map<int, viz::Color> applied;
  std::set<int> straggler_flagged;
  auto sweep_stragglers = [&] {
    if (!baseline) return;
    const std::vector<analysis::ProgressEstimator::PcRun> runs =
        estimator->PcRuns();
    for (size_t pc = 0; pc < std::min(baseline->size(), runs.size()); ++pc) {
      const int ipc = static_cast<int>(pc);
      const analysis::ProgressEstimator::PcRun& run = runs[pc];
      // Not started (or its start lost), or flagged already.
      if (run.usec < 0 || straggler_flagged.count(ipc) > 0) continue;
      const PcBaseline& base = (*baseline)[pc];
      if (base.runs == 0 ||
          !obs::RegressionRatio(run.usec, base.median, base.mad)) {
        continue;
      }
      straggler_flagged.insert(ipc);
      report.stragglers.push_back({ipc, run.usec, base.median, run.completed});
      // Deviation overlay: the fill stays with the pair-sequence state
      // machine; the stroke says "slow against history".
      if (scene_->PostStroke(ipc, viz::Color::Magenta())) {
        ++report.straggler_updates;
      }
    }
  };
  auto analyze_once = [&] {
    report.progress_series.push_back(estimator->ratio());
    report.eta_series_usec.push_back(estimator->EtaUsec());
    textual.ObserveStaleness();
    sweep_stragglers();
    if (options_.status_line) {
      std::string line = estimator->ScoreboardLine(query_name);
      if (baseline) {
        line += StrFormat("  stragglers:%zu", report.stragglers.size());
      }
      options_.status_line(line + "  | " +
                           textual.HealthFor("server0").ToString());
    }
    std::vector<ColorDecision> decisions;
    {
      std::lock_guard<std::mutex> lock(tracker_mu);
      decisions = tracker.TakeNew();
    }
    for (const ColorDecision& d : decisions) {
      auto it = applied.find(d.pc);
      if (it != applied.end() && it->second == d.color) continue;
      applied[d.pc] = d.color;
      if (scene_->PostColor(d.pc, d.color)) ++report.color_updates;
    }
    ++report.analysis_rounds;
  };

  // The %EOF marker ends the loop. The in-process channel never drops
  // control lines, so once the query thread has returned its %EOF is already
  // queued behind the trace events: wait for the listener to process it,
  // bounded by dot_timeout_us. A failed query sends no %EOF. Each wait ends
  // early when the %EOF arrives; trace events do not end it, so rounds stay
  // at most one analysis period apart without re-running per event batch.
  std::optional<int64_t> eof_deadline;
  for (uint64_t seen = textual.changes(); !textual.QueryFinished(query_name);
       seen = textual.WaitForChange(seen, options_.analysis_period_us)) {
    analyze_once();
    if (query_done.load(std::memory_order_acquire)) {
      if (!query_status.ok()) break;
      const int64_t now = clock->NowMicros();
      if (!eof_deadline) eof_deadline = now + options_.dot_timeout_us;
      if (now > *eof_deadline) break;
    }
  }
  query_thread.join();
  // The query is complete: pin progress at 1.0 whatever the wire delivered.
  if (query_status.ok()) estimator->MarkFinished();
  analyze_once();  // final sweep over the complete buffer
  scene_->dispatcher()->Drain();
  server_->DetachStream(stream);
  textual.Stop();  // joins listeners and finalizes the health accounting
  STETHO_RETURN_IF_ERROR(textual.Flush());
  report.pipe_health = textual.HealthFor("server0");
  if (injector != nullptr) {
    report.injected_dropped = injector->injected_dropped();
    report.injected_duplicated = injector->injected_duplicated();
    report.injected_reordered = injector->injected_reordered();
  }

  if (!query_status.ok()) return query_status;

  report.outcome = std::move(outcome);
  report.events = textual.BufferSnapshot();
  report.events_received = textual.events_received();
  report.events_filtered = textual.events_filtered();
  // The *expected* degree of parallelism is what the analyst configured —
  // if the server silently ran sequentially (the demo's anomaly), the
  // diagnosis below is exactly what flags it.
  report.parallelism = DiagnoseParallelism(
      report.events,
      server_->options().dop > 0 ? server_->options().dop
                                 : engine::DefaultDop());
  report.final_progress = estimator->ratio();
  return report;
}

}  // namespace stetho::scope
