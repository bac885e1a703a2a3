#include "server/mserver.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include <cstdlib>
#include <cstring>

#include "analysis/liveness.h"
#include "analysis/runner.h"
#include "common/string_util.h"
#include "dot/writer.h"
#include "engine/worker_pool.h"
#include "net/trace_stream.h"
#include "obs/flight_recorder.h"
#include "obs/span.h"

namespace stetho::server {
namespace {

obs::Counter* AdmissionCounter(const char* outcome, const char* help) {
  return obs::Registry::Default()->GetOrCreateCounter(
      std::string("stetho_admission_") + outcome + "_total", help);
}

obs::Counter* AdmittedCounter() {
  static obs::Counter* c = AdmissionCounter(
      "admitted", "Queries admitted by the memory-budget gate");
  return c;
}
obs::Counter* QueuedCounter() {
  static obs::Counter* c = AdmissionCounter(
      "queued", "Queries that waited for engine memory headroom");
  return c;
}
obs::Counter* RejectedCounter() {
  static obs::Counter* c = AdmissionCounter(
      "rejected", "Queries rejected because their predicted peak exceeds "
                  "the memory budget");
  return c;
}

obs::Gauge* PredictedPeakGauge() {
  static obs::Gauge* g = obs::Registry::Default()->GetOrCreateGauge(
      "stetho_mem_predicted_peak_bytes",
      "Static peak-footprint prediction for the most recently admitted "
      "or rejected query");
  return g;
}

/// The interpreter's process-wide live-byte mirror (same name, same
/// registry instance as the one engine/interpreter.cc maintains).
obs::Gauge* EngineLiveBytesGauge() {
  static obs::Gauge* g = obs::Registry::Default()->GetOrCreateGauge(
      "stetho_engine_live_bytes",
      "Live column bytes currently held by executing queries "
      "(Column::MemoryBytes accounting)");
  return g;
}

obs::Counter* SlowQueriesCounter() {
  static obs::Counter* c = obs::Registry::Default()->GetOrCreateCounter(
      "stetho_slow_queries_total",
      "Completed queries whose end-to-end time exceeded the configured "
      "multiple of their plan shape's profiled median");
  return c;
}

/// Every query's plan is named "user.<query name>" (user.s0, user.s1...).
constexpr const char* kPlanNamePrefix = "user.";

/// Events the postmortem ring retains — enough for several C4-scale
/// queries' start/done pairs without unbounded growth.
constexpr size_t kPostmortemRingCapacity = 4096;

}  // namespace

Mserver::Mserver(storage::Catalog catalog, const MserverOptions& options)
    : catalog_(std::move(catalog)),
      options_(options),
      clock_(options.clock != nullptr ? options.clock
                                      : static_cast<Clock*>(SteadyClock::Default())),
      profiler_(clock_) {
  // Slow-query postmortems: resolve the flight directory and, when one is
  // configured, keep a ring of recent profiler events so a bundle can show
  // what the engine was doing around the slow run.
  flight_dir_ = options_.flight_dir;
  if (flight_dir_.empty()) {
    const char* env = std::getenv("STETHO_FLIGHT_DIR");
    if (env != nullptr) flight_dir_ = env;
  }
  if (!flight_dir_.empty()) {
    postmortem_ring_ =
        std::make_shared<profiler::RingBufferSink>(kPostmortemRingCapacity);
    profiler_.AddSink(postmortem_ring_);
  }

  // Pre-warm the shared worker pool to the configured dop so the first
  // query never pays thread start-up inside its measured execution window.
  if (!options_.force_sequential) {
    int dop = options_.dop > 0 ? options_.dop : engine::DefaultDop();
    if (dop > 1) engine::WorkerPool::Default()->EnsureWorkers(dop);
  }
  // Likewise the kernel registry and the check catalog, which the first
  // query's optimize phase would otherwise build inside its span.
  engine::ModuleRegistry::Default();
  analysis::Runner::Default();
}

Result<mal::Program> Mserver::Explain(const std::string& sql) const {
  // Phase spans bracket the query lifecycle on the server's own timeline;
  // kernel spans from the interpreter nest inside "execute". All no-ops
  // while the default tracer is disabled.
  obs::Tracer* tracer = obs::Tracer::Default();
  mal::Program program;
  {
    obs::Span parse_span(tracer, "parse", "phase");
    STETHO_ASSIGN_OR_RETURN(program, sql::Compiler::CompileSql(&catalog_, sql));
  }
  {
    obs::Span optimize_span(tracer, "optimize", "phase");
    optimizer::Pipeline pipeline =
        optimizer::Pipeline::Default(options_.mitosis_pieces);
    STETHO_RETURN_IF_ERROR(pipeline.Run(&program).status());
  }
  return program;
}

Result<std::shared_ptr<const engine::PreparedPlan>> Mserver::Prepare(
    const std::string& sql) {
  STETHO_ASSIGN_OR_RETURN(mal::Program program, Explain(sql));
  program.set_function_name(
      StrFormat("%ss%d", kPlanNamePrefix, next_query_.fetch_add(1)));
  return engine::PreparedPlan::Prepare(std::move(program));
}

Result<QueryOutcome> Mserver::ExecuteSql(const std::string& sql) {
  STETHO_ASSIGN_OR_RETURN(std::shared_ptr<const engine::PreparedPlan> plan,
                          Prepare(sql));
  return ExecutePlan(std::move(plan), sql);
}

Result<QueryOutcome> Mserver::ExecutePlan(
    std::shared_ptr<const engine::PreparedPlan> plan, const std::string& sql) {
  QueryOutcome outcome;
  outcome.sql = sql;
  const std::string& function = plan->program().function_name();
  outcome.name = function.rfind(kPlanNamePrefix, 0) == 0
                     ? function.substr(std::strlen(kPlanNamePrefix))
                     : function;
  obs::Tracer* tracer = obs::Tracer::Default();

  {
    obs::Span admit_span(tracer, "admit", "phase");
    STETHO_RETURN_IF_ERROR(AdmitForMemory(*plan));
  }

  // The server generates the dot file before execution begins and pushes it
  // over every attached stream.
  dot::DotWriterOptions dot_options;
  dot_options.graph_name = function;
  outcome.dot = dot::ProgramToDot(*plan, dot_options);
  {
    std::lock_guard<std::mutex> lock(stream_mu_);
    for (const auto& stream : streams_) {
      (void)net::SendDotFile(stream.get(), outcome.name, outcome.dot);
    }
  }

  // Progress scoreboard: price the plan with the cached work model and let
  // the interpreter feed completions. The estimator outlives the query in
  // the scoreboard ring so ProgressText() can show recent history.
  auto estimator = std::make_shared<analysis::ProgressEstimator>(
      analysis::ProgressModelCache::Default()->GetOrBuild(*plan));
  {
    std::lock_guard<std::mutex> lock(progress_mu_);
    progress_.emplace_back(outcome.name, estimator);
    constexpr size_t kScoreboardHistory = 8;
    if (progress_.size() > kScoreboardHistory) {
      progress_.erase(progress_.begin());
    }
  }

  engine::Interpreter interp(&catalog_);
  engine::ExecOptions exec;
  exec.num_threads = options_.dop;
  exec.use_dataflow = !options_.force_sequential;
  exec.clock = clock_;
  exec.profiler = &profiler_;
  exec.progress = estimator.get();
  {
    obs::Span execute_span(tracer, "execute", "phase");
    STETHO_ASSIGN_OR_RETURN(outcome.result, interp.Execute(*plan, exec));
  }
  estimator->MarkFinished();
  outcome.plan = std::move(plan);
  RecordQueryProfile(outcome, *estimator);

  {
    std::lock_guard<std::mutex> lock(stream_mu_);
    for (const auto& stream : streams_) {
      (void)net::SendEof(stream.get(), outcome.name);
    }
  }
  return outcome;
}

void Mserver::AttachStream(std::shared_ptr<net::DatagramSender> sender) {
  profiler_.AddSink(std::make_shared<net::DatagramTraceSink>(sender));
  std::lock_guard<std::mutex> lock(stream_mu_);
  streams_.push_back(std::move(sender));
}

void Mserver::DetachStreams() {
  profiler_.ClearSinks();
  // ClearSinks drops the postmortem ring with the client streams; the
  // slow-query bundle must keep seeing events.
  if (postmortem_ring_ != nullptr) profiler_.AddSink(postmortem_ring_);
  std::lock_guard<std::mutex> lock(stream_mu_);
  streams_.clear();
}

std::string Mserver::MetricsText() const {
  std::string out = obs::Registry::Default()->ExpositionText();
  // Quantile footer as exposition comments: estimated p50/p95/p99 per
  // populated histogram (scrapers ignore # lines; humans don't).
  const std::string summary =
      obs::Registry::Default()->HistogramSummaryText();
  if (!summary.empty()) {
    out += "# histogram quantiles (estimated from fixed buckets)\n";
    size_t pos = 0;
    while (pos < summary.size()) {
      size_t eol = summary.find('\n', pos);
      if (eol == std::string::npos) eol = summary.size();
      out += "# ";
      out += summary.substr(pos, eol - pos);
      out += '\n';
      pos = eol + 1;
    }
  }
  return out;
}

obs::ProfileStore* Mserver::profile_store() const {
  return options_.profile_store != nullptr ? options_.profile_store
                                           : obs::ProfileStore::Default();
}

void Mserver::RecordQueryProfile(const QueryOutcome& outcome,
                                 const analysis::ProgressEstimator& estimator) {
  obs::ProfileStore* store = profile_store();
  const uint64_t shape_hash = outcome.plan->shape_hash();
  // The slow-query gate judges against what the store knew *before* this
  // run; folding first would dilute the baseline with the query on trial.
  // Read it and drop the snapshot before folding, so the fold need not
  // copy the profile on our account.
  int64_t baseline_runs = 0;
  double median = 0;
  if (std::shared_ptr<const obs::PlanProfile> baseline =
          store->Lookup(shape_hash)) {
    baseline_runs = baseline->total_usec.count();
    if (baseline_runs > 0) median = baseline->total_usec.Median();
  }

  obs::QueryObservation observation = estimator.ToObservation(shape_hash);
  observation.total_usec = outcome.result.total_usec;  // true end-to-end
  (void)store->Fold(observation);

  if (options_.slow_query_factor <= 0 || baseline_runs == 0) return;
  if (median < 1.0) return;
  const double ratio =
      static_cast<double>(outcome.result.total_usec) / median;
  if (ratio < options_.slow_query_factor) return;
  SlowQueriesCounter()->Increment();
  if (flight_dir_.empty()) return;

  // Postmortem bundle: plan + recent profiler events + the flight
  // recorder's black box (spans + metrics snapshot). Named by query, not
  // clock, so test runs under VirtualClock stay deterministic.
  const std::string path =
      StrFormat("%s/postmortem_%s.txt", flight_dir_.c_str(),
                outcome.name.c_str());
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return;  // unwritable dir: the counter still tells
  std::string bundle = StrFormat(
      "== slow query postmortem: %s ==\n"
      "sql: %s\n"
      "total: %lldus  baseline median: %.0fus over %lld runs  "
      "(%.2fx >= %.2fx gate)\n\n== plan ==\n",
      outcome.name.c_str(), outcome.sql.c_str(),
      static_cast<long long>(outcome.result.total_usec), median,
      static_cast<long long>(baseline_runs), ratio,
      options_.slow_query_factor);
  bundle += outcome.plan->program().ToString();
  bundle += "\n== recent trace events (ring snapshot, oldest first) ==\n";
  if (postmortem_ring_ != nullptr) {
    for (const profiler::TraceEvent& event : postmortem_ring_->Snapshot()) {
      bundle += profiler::FormatTraceLine(event);
      bundle += '\n';
    }
  }
  bundle += "\n== flight recorder ==\n";
  bundle += obs::FlightRecorder::Default()->Render(
      StrFormat("slow query %s (%.2fx baseline)", outcome.name.c_str(),
                ratio));
  std::fwrite(bundle.data(), 1, bundle.size(), file);
  std::fclose(file);
}

std::string Mserver::ProgressText() const {
  std::lock_guard<std::mutex> lock(progress_mu_);
  if (progress_.empty()) return "no queries tracked\n";
  std::string out;
  for (const auto& [name, estimator] : progress_) {
    out += estimator->ScoreboardLine(name);
    out += '\n';
  }
  return out;
}

Status Mserver::AdmitForMemory(const engine::PreparedPlan& plan) const {
  int64_t budget = options_.mem_budget_bytes > 0
                       ? options_.mem_budget_bytes
                       : analysis::EnvMemBudgetBytes();
  if (budget <= 0) return Status::OK();  // no budget configured: admit all

  const mal::Program& program = plan.program();
  std::vector<analysis::InstructionFacts> facts;
  analysis::AnalyzeProgram(program, &facts);
  analysis::MemoryReport report =
      analysis::AnalyzeMemory(program, facts, plan.deps());
  int dop = options_.force_sequential ? 1
            : options_.dop > 0 ? options_.dop
                               : engine::DefaultDop();
  int64_t predicted =
      analysis::ParallelPeakBound(program, plan.deps(), report, dop);
  if (!report.bounded || predicted == analysis::kUnboundedBytes) {
    // The model cannot bound the plan (missing cardinality annotations);
    // refusing service on an unbounded estimate would reject every such
    // plan forever, so admit and let execution be the judge.
    AdmittedCounter()->Increment();
    return Status::OK();
  }
  PredictedPeakGauge()->Set(predicted);

  if (predicted > budget) {
    RejectedCounter()->Increment();
    return Status::ResourceExhausted(
        StrFormat("query rejected by memory admission: predicted peak %s "
                  "(dop %d) exceeds the budget of %s",
                  analysis::FormatBytes(predicted).c_str(), dop,
                  analysis::FormatBytes(budget).c_str()));
  }

  // Fits the budget in isolation; check headroom against what running
  // queries currently hold, waiting for them to drain if necessary.
  obs::Gauge* live = EngineLiveBytesGauge();
  if (predicted <= budget - live->value()) {
    AdmittedCounter()->Increment();
    return Status::OK();
  }
  QueuedCounter()->Increment();
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(options_.admission_wait_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (predicted <= budget - live->value()) {
      AdmittedCounter()->Increment();
      return Status::OK();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  RejectedCounter()->Increment();
  return Status::ResourceExhausted(
      StrFormat("query rejected by memory admission after queueing %d ms: "
                "predicted peak %s plus %s already live exceeds the budget "
                "of %s",
                options_.admission_wait_ms,
                analysis::FormatBytes(predicted).c_str(),
                analysis::FormatBytes(live->value()).c_str(),
                analysis::FormatBytes(budget).c_str()));
}

Status Mserver::SetProfilerFilter(const std::string& serialized) {
  STETHO_ASSIGN_OR_RETURN(profiler::EventFilter filter,
                          profiler::EventFilter::Deserialize(serialized));
  profiler_.SetFilter(std::move(filter));
  return Status::OK();
}

}  // namespace stetho::server
