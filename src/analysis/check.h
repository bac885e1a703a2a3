#ifndef STETHO_ANALYSIS_CHECK_H_
#define STETHO_ANALYSIS_CHECK_H_

#include <vector>

#include "analysis/diagnostic.h"
#include "analysis/facts.h"
#include "dot/graph.h"
#include "engine/kernel.h"
#include "mal/program.h"
#include "obs/profile_store.h"
#include "obs/span.h"
#include "profiler/event.h"

namespace stetho::analysis {

/// Everything a check may inspect. All pointers are optional and borrowed;
/// checks declare what they need via Check::needs() and the Runner skips a
/// check whose required inputs are absent. A check may still use inputs it
/// did not declare when they happen to be present (e.g. the trace check
/// cross-validates statement text only when a program is supplied).
struct CheckContext {
  const mal::Program* program = nullptr;
  const dot::Graph* graph = nullptr;
  const std::vector<profiler::TraceEvent>* trace = nullptr;
  /// What checks derive from `program` and `trace` (absint facts, memory
  /// report, dependencies, trace index, schedule replay), computed once per
  /// lint. Runner::Run points it at the Facts of that call, replacing any
  /// value set here; code that calls a check's Run directly must point it
  /// at a Facts over the same program and trace.
  const Facts* facts = nullptr;
  /// Non-null arms kernel-signature's unknown-operation test. It reads the
  /// resolution the facts' absint sweep recorded, which is always against
  /// engine::ModuleRegistry::Default(), the only registry a plan is
  /// analysed with.
  const engine::ModuleRegistry* registry = nullptr;
  /// Platform spans (obs tracer snapshot or a parsed Chrome trace export);
  /// lets checks cross-validate the profiler's event stream against the
  /// platform's own self-observation.
  const std::vector<obs::SpanRecord>* spans = nullptr;
  /// Cross-run performance baselines (per-pc robust statistics keyed by
  /// plan-shape hash); lets checks compare a recorded trace against the
  /// committed profile of past runs of the same plan shape.
  const obs::ProfileStore* profile = nullptr;
  /// True when the optimizer pipeline lints between passes. Checks may relax
  /// severities for states that are routine mid-rewrite (e.g. dead code a
  /// later pass removes) but hazards in a final plan.
  bool in_pipeline = false;
};

/// Bitmask of CheckContext fields a check requires to run at all.
enum CheckInputs : unsigned {
  kNeedsProgram = 1u << 0,
  kNeedsGraph = 1u << 1,
  kNeedsTrace = 1u << 2,
  kNeedsRegistry = 1u << 3,
  kNeedsSpans = 1u << 4,
  kNeedsProfile = 1u << 5,
};

/// One pluggable static-analysis rule over plans, plan graphs, and traces.
/// Implementations are stateless and const: the same instance may run from
/// several threads (the optimizer pipeline shares one Runner).
class Check {
 public:
  virtual ~Check() = default;

  /// Stable kebab-case identifier, e.g. "ssa-def-before-use". Appears in
  /// diagnostics, pipeline errors, and mal_lint output.
  virtual const char* id() const = 0;

  /// One-line human description for catalogs (`mal_lint --list-checks`).
  virtual const char* description() const = 0;

  /// OR of CheckInputs bits; the Runner only invokes Run() when every
  /// required context field is non-null.
  virtual unsigned needs() const = 0;

  /// The highest severity Run() emits in any context. The Runner asserts it
  /// on every run, and a lint that reads only findings at or above some
  /// severity (the optimizer pipeline reads errors) skips the checks whose
  /// ceiling is below it.
  virtual Severity ceiling() const = 0;

  /// Appends findings to `out`. Must not mutate the context.
  virtual void Run(const CheckContext& context,
                   std::vector<Diagnostic>* out) const = 0;
};

}  // namespace stetho::analysis

#endif  // STETHO_ANALYSIS_CHECK_H_
