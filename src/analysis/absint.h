#ifndef STETHO_ANALYSIS_ABSINT_H_
#define STETHO_ANALYSIS_ABSINT_H_

#include <cstddef>
#include <string>
#include <vector>

#include "analysis/domain.h"
#include "analysis/signatures.h"
#include "common/status.h"
#include "mal/program.h"

namespace stetho::analysis {

/// Abstract interpreter over MAL plans: assigns every SSA register an
/// AbstractValue (analysis/domain.h) by running the transfer functions the
/// built-in kernels register with their signatures
/// (engine::ModuleRegistry::Default()) over the plan in pc order. Plans
/// are straight-line SSA, so one forward pass reaches the fixpoint. The
/// results feed the absint-based lint checks (checks_absint.cc) and the
/// optimizer's pass-equivalence differ.

/// One abstract value per program variable, indexed by variable id.
/// Registers no instruction assigns stay bottom (defined == false).
struct AbstractState {
  std::vector<AbstractValue> vars;
};

/// Abstract value of one instruction operand: constants are abstracted
/// exactly, variables read the current state (bottom when out of range or
/// not yet assigned — malformed plans analyze without crashing).
AbstractValue ArgOperandValue(const AbstractState& state,
                              const mal::Argument& arg);

/// Raw transfer result for one instruction: per-result values seeded from
/// the signature's shape kinds and refined by its transfer function, WITHOUT
/// folding in the results' declared MAL types. The type-flow check compares
/// this raw view against the declarations; AnalyzeProgram merges the two.
std::vector<AbstractValue> EvalInstruction(const mal::Program& program,
                                           const mal::Instruction& ins,
                                           const AbstractState& state);

/// Everything known about one instruction as the analysis steps over it.
/// `merged_results` is what the state records: the raw transfer result
/// refined by each result's declared type and cardinality annotation.
struct InstructionFacts {
  /// The kernel's registered signature; nullptr for unknown operations and
  /// extension kernels.
  const KernelSignature* sig = nullptr;
  /// The operation is registered in engine::ModuleRegistry::Default(), with
  /// or without a signature (the kernel-signature check's unknown-op test).
  bool resolved = false;
  std::vector<AbstractValue> args;
  std::vector<AbstractValue> raw_results;
  std::vector<AbstractValue> merged_results;
};

/// Steps the analysis over one instruction: resolves its kernel once,
/// evaluates its transfer function over `state`, and records its merged
/// results in `state`. AnalyzeProgram is this step in pc order.
InstructionFacts StepInstruction(const mal::Program& program,
                                 const mal::Instruction& ins,
                                 AbstractState* state);

/// Runs the analysis over the whole plan and returns the final state. With
/// `per_pc`, also returns every instruction's facts there, in program order.
AbstractState AnalyzeProgram(const mal::Program& program,
                             std::vector<InstructionFacts>* per_pc = nullptr);

/// One observable output slot: argument `arg_index` of the result-sink
/// instruction at `pc`. Identity across optimizer passes is positional
/// (op + arg_index in sink order) because passes renumber pcs.
struct SinkColumn {
  int pc = -1;
  std::string op;        ///< "module.function" of the sink
  size_t arg_index = 0;  ///< operand position within the sink
  AbstractValue value;
};

/// Abstract summary of everything a plan makes observable: the values
/// reaching result-sink operands, in plan order.
struct PlanSummary {
  std::vector<SinkColumn> columns;
};

PlanSummary SummarizeObservable(const mal::Program& program);
/// The same summary read from an AnalyzeProgram sweep's per-pc facts.
PlanSummary SummarizeObservable(const mal::Program& program,
                                const std::vector<InstructionFacts>& per_pc);

/// Pass-equivalence test: OkStatus when `after` is a plausible rewrite of
/// `before` (same sink columns, each column's abstract values compatible —
/// AbstractValue::CompatibleWith). Otherwise an Internal status naming
/// `label` (the pass), the column, and both abstract summaries. The
/// optimizer Pipeline calls this around every pass; a pass that narrows a
/// column to a DIFFERENT value than before provably changed query results.
Status CheckSummaryEquivalence(const PlanSummary& before,
                               const PlanSummary& after,
                               const std::string& label);

}  // namespace stetho::analysis

#endif  // STETHO_ANALYSIS_ABSINT_H_
