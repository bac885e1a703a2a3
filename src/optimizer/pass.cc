#include "optimizer/pass.h"

#include <utility>

#include "analysis/absint.h"
#include "analysis/facts.h"
#include "analysis/runner.h"
#include "common/string_util.h"
#include "engine/kernel.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace stetho::optimizer {
namespace {

obs::Counter* PassesFiredCounter() {
  static obs::Counter* counter = obs::Registry::Default()->GetOrCreateCounter(
      "stetho_opt_passes_fired_total",
      "Optimizer passes that changed a plan (any pass, any pipeline)");
  return counter;
}

obs::Histogram* PassUsecHistogram() {
  static obs::Histogram* histogram =
      obs::Registry::Default()->GetOrCreateHistogram(
          "stetho_opt_pass_usec",
          "Optimizer pass duration in microseconds (recorded while "
          "observability is enabled)",
          obs::Histogram::DefaultLatencyBounds());
  return histogram;
}

/// Ships the failure with its context: the flight recorder's dump carries
/// the recent spans (which pass ran when) and the full metrics snapshot.
Status DumpAndReturn(Status st) {
  obs::FlightRecorder* recorder = obs::FlightRecorder::Default();
  if (recorder->enabled()) {
    std::string reason = "optimizer pipeline failed: " + st.ToString();
    recorder->Note(reason);
    recorder->Dump(reason);
  }
  return st;
}

}  // namespace

Result<std::vector<std::string>> Pipeline::Run(mal::Program* program) const {
  std::vector<std::string> fired;
  analysis::CheckContext ctx;
  ctx.program = program;
  ctx.registry = engine::ModuleRegistry::Default();
  ctx.in_pipeline = true;
  // Pass-equivalence differ: abstract summary of what the plan outputs
  // (analysis/absint.h), re-checked after every pass that fired. A pass may
  // refine the summary (folding, mitosis re-packing) but never contradict
  // it — that would be a provable change of query results.
  analysis::PlanSummary summary = analysis::SummarizeObservable(*program);
  obs::Tracer* tracer = obs::Tracer::Default();
  // Counters are always on (one relaxed increment when a pass fires); the
  // duration histogram and pass spans read the clock, so they gate on the
  // kill switch / tracer enablement.
  const bool timed = obs::Active() || tracer->enabled();
  for (const auto& pass : passes_) {
    int64_t t0 = timed ? tracer->clock()->NowMicros() : 0;
    STETHO_ASSIGN_OR_RETURN(bool changed, pass->Run(program));
    if (timed) {
      int64_t dur = tracer->clock()->NowMicros() - t0;
      if (obs::Active()) PassUsecHistogram()->Observe(dur);
      if (tracer->enabled()) {
        tracer->RecordComplete("pass:" + std::string(pass->name()), "pass", 0,
                               -1, t0, dur);
      }
    }
    // A pass that reports no change leaves the plan exactly as the last
    // lint saw it (the optimized-plan golden test checks that contract),
    // so only passes that fired are linted, plus the first, which covers
    // the compiled input. The lint is a superset of Validate(): a failure
    // names the pass, the check, and the offending pc/variable.
    if (!changed && pass != passes_.front()) continue;
    const analysis::Facts facts(program, nullptr);
    Status lint = analysis::DiagnosticsToStatus(
        analysis::Runner::Default().Run(ctx, facts),
        StrFormat("optimizer pass '%s' produced an invalid plan",
                  pass->name()));
    if (!lint.ok()) return DumpAndReturn(std::move(lint));
    if (changed) {
      analysis::PlanSummary rewritten =
          analysis::SummarizeObservable(*program, facts.instructions());
      Status equiv = analysis::CheckSummaryEquivalence(
          summary, rewritten, StrFormat("optimizer pass '%s'", pass->name()));
      if (!equiv.ok()) return DumpAndReturn(std::move(equiv));
      summary = std::move(rewritten);  // later passes diff against the refinement
      fired.push_back(pass->name());
      PassesFiredCounter()->Increment();
      obs::Registry::Default()
          ->GetOrCreateCounter(
              "stetho_opt_pass_" + obs::MetricToken(pass->name()) +
                  "_fired_total",
              "Times optimizer pass '" + std::string(pass->name()) +
                  "' changed a plan")
          ->Increment();
    }
  }
  return fired;
}

Pipeline Pipeline::Default(int mitosis_pieces) {
  Pipeline pipeline;
  pipeline.Add(MakeConstantFoldingPass());
  pipeline.Add(MakeCommonSubexpressionPass());
  pipeline.Add(MakeDeadCodePass());
  if (mitosis_pieces > 1) {
    pipeline.Add(MakeMitosisPass(mitosis_pieces));
  }
  pipeline.Add(MakeMemoryReorderPass());
  pipeline.Add(MakeDataflowMarkerPass());
  return pipeline;
}

}  // namespace stetho::optimizer
