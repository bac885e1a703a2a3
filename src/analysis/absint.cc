#include "analysis/absint.h"

#include <utility>

#include "common/string_util.h"
#include "engine/kernel.h"

namespace stetho::analysis {
namespace {

using mal::Argument;
using mal::Instruction;
using mal::Program;

/// Per-result shape defaults from the signature's result kinds. Transfer
/// functions refine these; kernels without a transfer still get their
/// scalar/BAT shape right.
std::vector<AbstractValue> SeedResults(const KernelSignature* sig,
                                       const Instruction& ins) {
  std::vector<AbstractValue> results(ins.results.size(),
                                     AbstractValue::Top());
  if (sig == nullptr) return results;
  for (size_t i = 0; i < results.size() && i < sig->results.size(); ++i) {
    switch (sig->results[i]) {
      case ValueKind::kScalar:
        results[i].is_bat = Tri::kFalse;
        results[i].card = Interval::Exact(1);
        break;
      case ValueKind::kBat:
        results[i].is_bat = Tri::kTrue;
        break;
      case ValueKind::kAny:
        break;
    }
  }
  return results;
}

std::vector<AbstractValue> EvalWithArgs(const Program& program,
                                        const Instruction& ins,
                                        const KernelSignature* sig,
                                        const std::vector<AbstractValue>& args) {
  std::vector<AbstractValue> results = SeedResults(sig, ins);
  if (sig != nullptr && sig->transfer != nullptr) {
    TransferContext ctx{&program, &ins, &args};
    sig->transfer(ctx, &results);
  }
  return results;
}

/// Refines a raw transfer result with the result register's declaration:
/// the declared MAL type fills in facts the transfer left unknown, and a
/// catalog cardinality annotation narrows the interval. The raw value is
/// kept raw elsewhere so the type-flow check can still compare the two.
AbstractValue MergeDeclared(const AbstractValue& raw,
                            const mal::Variable& var) {
  AbstractValue out = raw;
  out.defined = true;
  if (out.is_bat == Tri::kUnknown) {
    out.is_bat = var.type.is_bat ? Tri::kTrue : Tri::kFalse;
  }
  if (!out.elem_known() && var.type.base != storage::DataType::kNull) {
    out.elem = var.type.base;
  }
  if (var.type.is_bat && var.has_cardinality()) {
    Interval annotated = Interval::Range(var.card_lo, var.card_hi);
    // The annotation is catalog ground truth; it wins over a transfer
    // result it contradicts (the checks report the contradiction).
    out.card =
        out.card.Overlaps(annotated) ? out.card.Meet(annotated) : annotated;
  }
  return out;
}

}  // namespace

AbstractValue ArgOperandValue(const AbstractState& state,
                              const Argument& arg) {
  if (arg.kind == Argument::Kind::kConst) {
    return AbstractValue::FromConstant(arg.constant);
  }
  if (arg.var < 0 || static_cast<size_t>(arg.var) >= state.vars.size()) {
    return AbstractValue{};  // bottom: malformed reference
  }
  return state.vars[static_cast<size_t>(arg.var)];
}

std::vector<AbstractValue> EvalInstruction(const Program& program,
                                           const Instruction& ins,
                                           const AbstractState& state) {
  std::vector<AbstractValue> args;
  args.reserve(ins.args.size());
  for (const Argument& a : ins.args) {
    args.push_back(ArgOperandValue(state, a));
  }
  return EvalWithArgs(
      program, ins,
      engine::ModuleRegistry::Default()->Signature(ins.module, ins.function),
      args);
}

InstructionFacts StepInstruction(const Program& program,
                                 const Instruction& ins,
                                 AbstractState* state) {
  InstructionFacts facts;
  const engine::ModuleRegistry::Resolution resolution =
      engine::ModuleRegistry::Default()->Resolve(ins.module, ins.function);
  facts.sig = resolution.signature;
  facts.resolved = resolution.registered;
  facts.args.reserve(ins.args.size());
  for (const Argument& a : ins.args) {
    facts.args.push_back(ArgOperandValue(*state, a));
  }
  facts.raw_results = EvalWithArgs(program, ins, facts.sig, facts.args);
  facts.merged_results = facts.raw_results;
  for (size_t i = 0; i < ins.results.size(); ++i) {
    int r = ins.results[i];
    if (r < 0 || static_cast<size_t>(r) >= state->vars.size()) continue;
    facts.merged_results[i] =
        MergeDeclared(facts.raw_results[i], program.variable(r));
    state->vars[static_cast<size_t>(r)] = facts.merged_results[i];
  }
  return facts;
}

AbstractState AnalyzeProgram(const Program& program,
                             std::vector<InstructionFacts>* per_pc) {
  AbstractState state;
  state.vars.resize(program.num_variables());
  if (per_pc != nullptr) {
    per_pc->clear();
    per_pc->reserve(program.size());
  }
  // Straight-line SSA: every argument's producer precedes its use, so one
  // forward pass in pc order is the fixpoint.
  for (const Instruction& ins : program.instructions()) {
    InstructionFacts facts = StepInstruction(program, ins, &state);
    if (per_pc != nullptr) per_pc->push_back(std::move(facts));
  }
  return state;
}

PlanSummary SummarizeObservable(const Program& program) {
  std::vector<InstructionFacts> per_pc;
  AnalyzeProgram(program, &per_pc);
  return SummarizeObservable(program, per_pc);
}

PlanSummary SummarizeObservable(const Program& program,
                                const std::vector<InstructionFacts>& per_pc) {
  PlanSummary summary;
  for (size_t pc = 0; pc < per_pc.size() && pc < program.size(); ++pc) {
    const Instruction& ins = program.instruction(static_cast<int>(pc));
    const InstructionFacts& facts = per_pc[pc];
    bool is_sink = facts.sig != nullptr
                       ? facts.sig->is_sink
                       : LooksLikeResultSink(ins.module, ins.function);
    if (!is_sink) continue;
    for (size_t i = 0; i < facts.args.size(); ++i) {
      summary.columns.push_back(
          SinkColumn{ins.pc, ins.FullName(), i, facts.args[i]});
    }
  }
  return summary;
}

Status CheckSummaryEquivalence(const PlanSummary& before,
                               const PlanSummary& after,
                               const std::string& label) {
  if (before.columns.size() != after.columns.size()) {
    return Status::Internal(StrFormat(
        "%s changed the observable sink columns: %zu before, %zu after",
        label.c_str(), before.columns.size(), after.columns.size()));
  }
  for (size_t i = 0; i < before.columns.size(); ++i) {
    const SinkColumn& b = before.columns[i];
    const SinkColumn& a = after.columns[i];
    // Positional identity: passes renumber pcs, but they may not reorder,
    // retarget, or retype what the plan outputs.
    if (b.op != a.op || b.arg_index != a.arg_index) {
      return Status::Internal(StrFormat(
          "%s rewired sink column %zu: %s arg %zu became %s arg %zu",
          label.c_str(), i, b.op.c_str(), b.arg_index, a.op.c_str(),
          a.arg_index));
    }
    if (!b.value.CompatibleWith(a.value)) {
      return Status::Internal(StrFormat(
          "%s changed observable semantics of %s (pc=%d) arg %zu: "
          "before = %s, after = %s",
          label.c_str(), a.op.c_str(), a.pc, a.arg_index,
          b.value.ToString().c_str(), a.value.ToString().c_str()));
    }
  }
  return Status::OK();
}

}  // namespace stetho::analysis
