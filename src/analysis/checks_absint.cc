#include <memory>
#include <string>
#include <vector>

#include "analysis/absint.h"
#include "analysis/checks.h"
#include "analysis/emitter.h"
#include "analysis/signatures.h"
#include "common/string_util.h"

namespace stetho::analysis {
namespace {

using mal::Instruction;
using mal::Program;
using storage::DataType;

/// Variable id of result i, or -1 (suits Diagnostic::var).
int ResultVar(const Instruction& ins, size_t i) {
  return i < ins.results.size() ? ins.results[i] : -1;
}

/// Calls `visit(ins, facts)` for every instruction in program order, with
/// the lint's shared absint facts for it.
template <typename Visit>
void ForEachInstruction(const CheckContext& ctx, Visit visit) {
  const std::vector<InstructionFacts>& facts = ctx.facts->instructions();
  for (const Instruction& ins : ctx.program->instructions()) {
    visit(ins, facts[static_cast<size_t>(ins.pc)]);
  }
}

int ArgVar(const Instruction& ins, size_t i) {
  if (i >= ins.args.size()) return -1;
  const mal::Argument& a = ins.args[i];
  return a.kind == mal::Argument::Kind::kVar ? a.var : -1;
}

// ---------------------------------------------------------------------------
// type-flow
// ---------------------------------------------------------------------------

class TypeFlowCheck final : public Check {
 public:
  const char* id() const override { return "type-flow"; }
  Severity ceiling() const override { return Severity::kError; }
  const char* description() const override {
    return "element types computed by the kernel transfer functions match "
           "the declared result types and per-argument type constraints";
  }
  unsigned needs() const override { return kNeedsProgram; }

  void Run(const CheckContext& ctx, std::vector<Diagnostic>* out) const override {
    const Program& p = *ctx.program;
    Emitter emit(id(), out);
    ForEachInstruction(ctx, [&](const Instruction& ins,
                                const InstructionFacts& facts) {
      const KernelSignature* sig = facts.sig;

      // Raw transfer result vs declared result type. The raw value is
      // untouched by the declaration, so a disagreement means the plan
      // writer and the kernel disagree about what flows out.
      for (size_t i = 0; i < facts.raw_results.size(); ++i) {
        int r = ResultVar(ins, i);
        if (r < 0 || static_cast<size_t>(r) >= p.num_variables()) continue;
        const mal::MalType& declared = p.variable(r).type;
        const AbstractValue& raw = facts.raw_results[i];
        if (raw.elem_known() && declared.base != DataType::kNull &&
            raw.elem != declared.base) {
          emit.Emit(Severity::kError, ins.pc, r,
                    StrFormat("%s computes %s for result %zu but %s is "
                              "declared %s",
                              ins.FullName().c_str(), DataTypeName(raw.elem),
                              i, VarName(p, r).c_str(),
                              declared.ToString().c_str()),
                    "fix the declared type or the producing operation");
        }
      }
      if (sig == nullptr) return;

      // Per-slot element-type constraints (strings, booleans — slots with
      // no runtime coercion, so a mismatch is a guaranteed kernel error).
      for (size_t i = 0; i < sig->arg_elem.size() && i < facts.args.size();
           ++i) {
        DataType want = sig->arg_elem[i];
        const AbstractValue& got = facts.args[i];
        if (want == DataType::kNull) continue;
        if (got.defined && got.elem_known() && got.elem != want) {
          emit.Emit(Severity::kError, ins.pc, ArgVar(ins, i),
                    StrFormat("argument %zu of %s must be %s, got %s", i,
                              ins.FullName().c_str(), DataTypeName(want),
                              DataTypeName(got.elem)));
        }
      }

      // bat.append / mat.pack concatenate; heterogeneous element types are
      // a runtime TypeError.
      bool concatenates = (ins.module == "bat" && ins.function == "append") ||
                          (ins.module == "mat" && ins.function == "pack");
      if (concatenates && facts.args.size() >= 2) {
        const AbstractValue& first = facts.args[0];
        for (size_t i = 1; i < facts.args.size(); ++i) {
          const AbstractValue& other = facts.args[i];
          if (first.elem_known() && other.elem_known() &&
              first.elem != other.elem) {
            emit.Emit(Severity::kError, ins.pc, ArgVar(ins, i),
                      StrFormat("%s concatenates %s with %s — heterogeneous "
                                "element types fail at run time",
                                ins.FullName().c_str(),
                                DataTypeName(first.elem),
                                DataTypeName(other.elem)));
          }
        }
      }
    });
  }
};

// ---------------------------------------------------------------------------
// cardinality-contradiction
// ---------------------------------------------------------------------------

class CardinalityContradictionCheck final : public Check {
 public:
  const char* id() const override { return "cardinality-contradiction"; }
  Severity ceiling() const override { return Severity::kError; }
  const char* description() const override {
    return "argument pairs that must be equal-cardinality BATs (and "
           "candidate-list/column pairs) admit at least one common row count";
  }
  unsigned needs() const override { return kNeedsProgram; }

  void Run(const CheckContext& ctx, std::vector<Diagnostic>* out) const override {
    Emitter emit(id(), out);
    ForEachInstruction(ctx, [&](const Instruction& ins,
                                const InstructionFacts& facts) {
      const KernelSignature* sig = facts.sig;
      if (sig == nullptr) return;

      for (const auto& [ai, bi] : sig->equal_card_args) {
        if (ai < 0 || bi < 0 ||
            static_cast<size_t>(ai) >= facts.args.size() ||
            static_cast<size_t>(bi) >= facts.args.size()) {
          continue;
        }
        const AbstractValue& a = facts.args[static_cast<size_t>(ai)];
        const AbstractValue& b = facts.args[static_cast<size_t>(bi)];
        // Scalars broadcast (batcalc), so only BAT/BAT pairs must zip.
        if (!a.defined || !b.defined || a.is_bat != Tri::kTrue ||
            b.is_bat != Tri::kTrue) {
          continue;
        }
        if (!a.card.Overlaps(b.card)) {
          emit.Emit(Severity::kError, ins.pc, ArgVar(ins, static_cast<size_t>(ai)),
                    StrFormat("%s requires arguments %d and %d to have equal "
                              "cardinality, but their row counts %s and %s "
                              "cannot be equal",
                              ins.FullName().c_str(), ai, bi,
                              a.card.ToString().c_str(),
                              b.card.ToString().c_str()),
                    "one of the two inputs feeds the wrong operation");
        }
      }

      // A candidate list selects positions of a value column, so it can
      // never hold more rows than the column: select/thetaselect/likeselect
      // pair (column 0, candidates 1); projection pairs (candidates 0,
      // column 1).
      int cand = -1;
      int col = -1;
      if (ins.module == "algebra") {
        if (ins.function == "select" || ins.function == "thetaselect" ||
            ins.function == "likeselect") {
          col = 0;
          cand = 1;
        } else if (ins.function == "projection") {
          cand = 0;
          col = 1;
        }
      }
      if (cand >= 0 && static_cast<size_t>(cand) < facts.args.size() &&
          static_cast<size_t>(col) < facts.args.size()) {
        const AbstractValue& c = facts.args[static_cast<size_t>(cand)];
        const AbstractValue& v = facts.args[static_cast<size_t>(col)];
        if (c.defined && v.defined && c.is_bat == Tri::kTrue &&
            v.is_bat == Tri::kTrue && c.card.lo > v.card.hi) {
          emit.Emit(Severity::kError, ins.pc, ArgVar(ins, static_cast<size_t>(cand)),
                    StrFormat("%s candidate list holds at least %lld rows "
                              "but the column it indexes holds at most %lld",
                              ins.FullName().c_str(),
                              static_cast<long long>(c.card.lo),
                              static_cast<long long>(v.card.hi)),
                    "the candidate list belongs to a different column");
        }
      }
    });
  }
};

// ---------------------------------------------------------------------------
// guaranteed-empty
// ---------------------------------------------------------------------------

class GuaranteedEmptyCheck final : public Check {
 public:
  const char* id() const override { return "guaranteed-empty"; }
  Severity ceiling() const override { return Severity::kWarning; }
  const char* description() const override {
    return "a BAT register is provably empty on every execution — the "
           "subplan computing it does no useful work";
  }
  unsigned needs() const override { return kNeedsProgram; }

  void Run(const CheckContext& ctx, std::vector<Diagnostic>* out) const override {
    const Program& p = *ctx.program;
    Emitter emit(id(), out);
    ForEachInstruction(ctx, [&](const Instruction& ins,
                                const InstructionFacts& facts) {
      for (size_t i = 0; i < facts.merged_results.size(); ++i) {
        const AbstractValue& v = facts.merged_results[i];
        if (!v.defined || v.is_bat != Tri::kTrue) continue;
        if (v.card.hi != 0) continue;
        emit.Emit(Severity::kWarning, ins.pc, ResultVar(ins, i),
                  StrFormat("%s is empty on every execution (%s produces "
                            "card=%s)",
                            VarName(p, ResultVar(ins, i)).c_str(),
                            ins.FullName().c_str(), v.card.ToString().c_str()),
                  "drop the subplan or fix the predicate/limit producing it");
      }
    });
  }
};

// ---------------------------------------------------------------------------
// missed-constant-fold
// ---------------------------------------------------------------------------

class MissedConstantFoldCheck final : public Check {
 public:
  const char* id() const override { return "missed-constant-fold"; }
  Severity ceiling() const override { return Severity::kNote; }
  const char* description() const override {
    return "a pure calc.* operation over constant operands survives — "
           "constant folding would remove the instruction";
  }
  unsigned needs() const override { return kNeedsProgram; }

  void Run(const CheckContext& ctx, std::vector<Diagnostic>* out) const override {
    Emitter emit(id(), out);
    ForEachInstruction(ctx, [&](const Instruction& ins,
                                const InstructionFacts& facts) {
      if (ins.module != "calc" || ins.results.size() != 1 ||
          ins.args.empty()) {
        return;
      }
      const KernelSignature* sig = facts.sig;
      if (sig == nullptr || !sig->side_effect_free) return;
      for (const AbstractValue& a : facts.args) {
        if (!a.constant.has_value()) return;
      }
      emit.Emit(Severity::kNote, ins.pc, ResultVar(ins, 0),
                StrFormat("%s has only constant operands — the result is "
                          "compile-time computable",
                          ins.FullName().c_str()),
                "run optimizer::MakeConstantFoldingPass");
    });
  }
};

// ---------------------------------------------------------------------------
// order-key-propagation
// ---------------------------------------------------------------------------

class OrderKeyPropagationCheck final : public Check {
 public:
  const char* id() const override { return "order-key-propagation"; }
  Severity ceiling() const override { return Severity::kError; }
  const char* description() const override {
    return "candidate-list argument slots receive ascending, NULL-free "
           "bat[:oid] values (row ids, not data)";
  }
  unsigned needs() const override { return kNeedsProgram; }

  void Run(const CheckContext& ctx, std::vector<Diagnostic>* out) const override {
    Emitter emit(id(), out);
    ForEachInstruction(ctx, [&](const Instruction& ins,
                                const InstructionFacts& facts) {
      const KernelSignature* sig = facts.sig;
      if (sig == nullptr) return;
      for (int slot : sig->candidate_args) {
        if (slot < 0 || static_cast<size_t>(slot) >= facts.args.size()) {
          continue;
        }
        const AbstractValue& v = facts.args[static_cast<size_t>(slot)];
        if (!v.defined || v.is_bat != Tri::kTrue) continue;
        const char* defect = nullptr;
        if (v.elem_known() && v.elem != DataType::kOid) {
          defect = "its element type is not :oid — data values would be "
                   "misread as row ids";
        } else if (v.sorted == Tri::kFalse) {
          defect = "it is provably not ascending";
        } else if (v.nullable == Tri::kTrue) {
          defect = "it provably contains NULLs";
        }
        if (defect == nullptr) continue;
        emit.Emit(Severity::kError, ins.pc, ArgVar(ins, static_cast<size_t>(slot)),
                  StrFormat("argument %d of %s must be a candidate list, but "
                            "%s",
                            slot, ins.FullName().c_str(), defect),
                  "pass the oid selection (sql.tid / algebra.select result) "
                  "instead");
      }
    });
  }
};

}  // namespace

std::unique_ptr<Check> MakeTypeFlowCheck() {
  return std::make_unique<TypeFlowCheck>();
}
std::unique_ptr<Check> MakeCardinalityContradictionCheck() {
  return std::make_unique<CardinalityContradictionCheck>();
}
std::unique_ptr<Check> MakeGuaranteedEmptyCheck() {
  return std::make_unique<GuaranteedEmptyCheck>();
}
std::unique_ptr<Check> MakeMissedConstantFoldCheck() {
  return std::make_unique<MissedConstantFoldCheck>();
}
std::unique_ptr<Check> MakeOrderKeyPropagationCheck() {
  return std::make_unique<OrderKeyPropagationCheck>();
}

}  // namespace stetho::analysis
