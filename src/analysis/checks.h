#ifndef STETHO_ANALYSIS_CHECKS_H_
#define STETHO_ANALYSIS_CHECKS_H_

#include <memory>
#include <vector>

#include "analysis/check.h"

namespace stetho::analysis {

/// --- The built-in check suite ---
///
/// Plan checks (need a mal::Program):
///   ssa-def-before-use      arguments reference in-range, already-defined vars
///   ssa-single-assignment   every variable has at most one defining pc
///   dead-instruction        pure instruction whose results are never read
///   kernel-signature        op exists; arity and BAT/scalar shapes match the
///                           kernel's registered signature (the op must be
///                           in the ModuleRegistry when one is given)
///   bat-lifetime            BAT registers produced by effectful instructions
///                           are consumed by someone (plan-only; the trace
///                           ordering half lives in
///                           trace-dependency-violation)
///   sink-order-key          result sinks carry a well-defined
///                           engine::ResultColumn::order key
///
/// Artifact checks:
///   dot-contract            pc N ↔ node "nN", statement text ↔ label, edges
///                           match dataflow dependencies (graph [+ program])
///   trace-conformance       one start/done pair per pc, monotonic clock,
///                           pc in range, stmt matches plan (trace [+ both])
///   trace-span-conformance  every profiler start/done pc pair is covered by
///                           exactly one kernel span in an exported platform
///                           trace, with matching thread id (trace + spans)
///   trace-sequence-gap      event sequence numbers are contiguous (holes =
///                           transport loss, warning), unique (repeats =
///                           duplicates, error), and monotone in file order
///                           (regressions = reordered delivery, note); the
///                           offline twin of net::StreamHealth (trace)
///
/// Happens-before schedule checks (analysis/hb.h replay of the trace
/// against the SSA def/use DAG; see checks_hb.cc):
///   trace-dependency-violation  no start event precedes any producer's done
///                               event; also flags inverted intervals and
///                               surplus start/done pairs (program + trace)
///   trace-write-race            no two HB-unordered instructions touch one
///                               BAT variable with a writer among them
///                               (program + trace)
///   span-interleaving           kernel spans sharing one query-local tid
///                               nest; partial overlap means broken slot
///                               accounting (spans)
///   trace-clock-monotonicity    per-thread timestamps never regress in
///                               emission order (trace)
///   schedule-serialization      note: plan admits width >= 2 and dop >= 2
///                               was configured, yet the observed schedule
///                               is fully serial (program + trace)
///
/// Abstract-interpretation checks (analysis/absint.h over the transfer
/// functions the kernels register; all need a mal::Program):
///   type-flow                   computed element types match declarations
///                               and per-slot type constraints (strings,
///                               booleans, append/pack homogeneity)
///   cardinality-contradiction   equal-cardinality argument pairs and
///                               candidate⊆column relations admit at least
///                               one common row count
///   guaranteed-empty            a BAT register is provably always empty
///   missed-constant-fold        a pure calc.* over constant operands that
///                               MakeConstantFoldingPass would remove
///   order-key-propagation       candidate-list slots receive ascending,
///                               NULL-free bat[:oid] values
///
/// Memory-lifetime checks (analysis/liveness.h liveness + footprint model;
/// see checks_memory.cc):
///   memory-blowup               predicted sequential peak exceeds
///                               STETHO_MEM_BUDGET, or blows up relative to
///                               the bytes bound from base tables (program)
///   live-range-bloat            a heavy BAT stays live far past the point
///                               where its last consumer could legally run
///                               (program)
///   footprint-conformance       the static peak bound dominates the
///                               engine-recorded rss peak and stays within
///                               2x of it (program + trace)
///
/// Cross-run performance checks (analysis/perfdiff.h alignment against an
/// obs::ProfileStore baseline; see checks_perf.cc):
///   trace-perf-regression       a recorded trace's per-pc durations (and
///                               end-to-end makespan) regress against the
///                               stored baseline profile of the same plan
///                               shape: >= 2x median is an error, >= 1.5x a
///                               warning, both gated on the delta clearing
///                               max(4*MAD, 10us); a missing baseline for
///                               the shape is a note (trace + profile)

std::unique_ptr<Check> MakeDefBeforeUseCheck();
std::unique_ptr<Check> MakeSingleAssignmentCheck();
std::unique_ptr<Check> MakeDeadInstructionCheck();
std::unique_ptr<Check> MakeKernelSignatureCheck();
std::unique_ptr<Check> MakeBatLifetimeCheck();
std::unique_ptr<Check> MakeSinkOrderKeyCheck();
std::unique_ptr<Check> MakeDotContractCheck();
std::unique_ptr<Check> MakeTraceConformanceCheck();
std::unique_ptr<Check> MakeTraceSpanConformanceCheck();
std::unique_ptr<Check> MakeTraceSequenceGapCheck();
std::unique_ptr<Check> MakeTraceDependencyViolationCheck();
std::unique_ptr<Check> MakeTraceWriteRaceCheck();
std::unique_ptr<Check> MakeSpanInterleavingCheck();
std::unique_ptr<Check> MakeTraceClockMonotonicityCheck();
std::unique_ptr<Check> MakeScheduleSerializationCheck();
std::unique_ptr<Check> MakeTypeFlowCheck();
std::unique_ptr<Check> MakeCardinalityContradictionCheck();
std::unique_ptr<Check> MakeGuaranteedEmptyCheck();
std::unique_ptr<Check> MakeMissedConstantFoldCheck();
std::unique_ptr<Check> MakeOrderKeyPropagationCheck();
std::unique_ptr<Check> MakeMemoryBlowupCheck();
std::unique_ptr<Check> MakeLiveRangeBloatCheck();
std::unique_ptr<Check> MakeFootprintConformanceCheck();
std::unique_ptr<Check> MakeTracePerfRegressionCheck();

/// All built-in checks, in the order listed above.
std::vector<std::unique_ptr<Check>> AllChecks();

}  // namespace stetho::analysis

#endif  // STETHO_ANALYSIS_CHECKS_H_
