#include <charconv>
#include <map>
#include <unordered_map>

#include "common/string_util.h"
#include "engine/interpreter.h"
#include "optimizer/pass.h"

namespace stetho::optimizer {
namespace {

using mal::Argument;
using mal::Instruction;
using mal::MalType;
using mal::Program;
using storage::DataType;
using storage::Value;

/// True when the kernel's only observable effect is its result value
/// (KernelSignature::side_effect_free), so the call may be eliminated or
/// deduplicated. Unknown operations and kernels without a signature may
/// have effects.
bool SideEffectFree(const Instruction& ins) {
  const analysis::KernelSignature* sig =
      engine::ModuleRegistry::Default()->Signature(ins.module, ins.function);
  return sig != nullptr && sig->side_effect_free;
}

/// Remaps variable arguments through `replacement` (var id -> var id).
void RemapArgs(Instruction* ins, const std::vector<int>& replacement) {
  for (Argument& arg : ins->args) {
    if (arg.kind == Argument::Kind::kVar) {
      int r = replacement[static_cast<size_t>(arg.var)];
      if (r >= 0) arg.var = r;
    }
  }
}

/// Replaces variable arguments by inline constants where `folded` has one.
void FoldArgs(Instruction* ins,
              const std::unordered_map<int, Value>& folded) {
  for (Argument& arg : ins->args) {
    if (arg.kind != Argument::Kind::kVar) continue;
    auto it = folded.find(arg.var);
    if (it != folded.end()) {
      arg = Argument::Const(it->second);
    }
  }
}

// ---------------------------------------------------------------------------
// Constant folding
// ---------------------------------------------------------------------------

class ConstantFoldingPass : public Pass {
 public:
  const char* name() const override { return "constant_folding"; }

  Result<Effect> Apply(Program* program, const analysis::Facts&) override {
    const engine::ModuleRegistry* registry = engine::ModuleRegistry::Default();
    engine::ExecContext ctx(nullptr, SteadyClock::Default());

    std::unordered_map<int, Value> folded;
    std::vector<Instruction> kept;
    bool changed = false;

    for (Instruction ins : program->instructions()) {
      FoldArgs(&ins, folded);
      bool all_const = true;
      for (const Argument& arg : ins.args) {
        if (arg.kind == Argument::Kind::kVar) {
          all_const = false;
          break;
        }
      }
      // Only scalar calc.* operations fold; they are total functions of
      // their inputs (modulo division by zero, which we leave to run time).
      if (all_const && ins.module == "calc" && ins.results.size() == 1) {
        auto kernel = registry->Lookup(ins.module, ins.function);
        if (kernel.ok()) {
          engine::KernelArgs args;
          args.ins = &ins;
          args.ctx = &ctx;
          std::vector<engine::RegisterValue> storage_args;
          storage_args.reserve(ins.args.size());
          for (const Argument& arg : ins.args) {
            storage_args.push_back(engine::RegisterValue::Scalar(arg.constant));
          }
          for (engine::RegisterValue& rv : storage_args) args.args.push_back(&rv);
          engine::RegisterValue result;
          args.results.push_back(&result);
          Status st = (*kernel.value())(args);
          if (st.ok() && !result.is_bat()) {
            folded[ins.results[0]] = result.scalar;
            changed = true;
            continue;  // drop the instruction
          }
        }
      }
      kept.push_back(std::move(ins));
    }
    if (!changed) return Effect::None();
    program->ReplaceInstructions(std::move(kept));
    return Effect::Rewrite();
  }
};

// ---------------------------------------------------------------------------
// Common subexpression elimination
// ---------------------------------------------------------------------------

/// Structural key of a side-effect-free instruction: op name + args, each
/// constant by its exact value and type.
std::string InstructionKey(const Instruction& ins) {
  std::string key = ins.module + "." + ins.function + "(";
  for (const Argument& arg : ins.args) {
    if (arg.kind == Argument::Kind::kVar) {
      key += "v" + std::to_string(arg.var);
    } else if (arg.constant.type() == DataType::kDouble) {
      // ToString prints six significant digits, which would merge
      // 1.0000001 with 1.0000002; the shortest round-trip form is exact.
      char buf[32];
      auto [end, ec] =
          std::to_chars(buf, buf + sizeof(buf), arg.constant.AsDouble());
      (void)ec;
      key.append(buf, end);
      key += DataTypeName(DataType::kDouble);
    } else {
      key += arg.constant.ToString();
      // Distinguish 1 (:lng) from 1@0 (:oid) via the type tag.
      key += DataTypeName(arg.constant.type());
    }
    key += ",";
  }
  key += ")";
  return key;
}

class CommonSubexpressionPass : public Pass {
 public:
  const char* name() const override { return "common_subexpression"; }

  Result<Effect> Apply(Program* program, const analysis::Facts&) override {
    std::vector<int> replacement(program->num_variables(), -1);
    std::map<std::string, size_t> seen;  // key -> index into `kept`
    std::vector<Instruction> kept;
    bool changed = false;

    for (Instruction ins : program->instructions()) {
      RemapArgs(&ins, replacement);
      if (!SideEffectFree(ins)) {
        kept.push_back(std::move(ins));
        continue;
      }
      std::string key = InstructionKey(ins);
      auto it = seen.find(key);
      if (it == seen.end()) {
        kept.push_back(std::move(ins));
        seen.emplace(std::move(key), kept.size() - 1);
        continue;
      }
      // Identical computation: alias this instruction's results to the
      // earlier instruction's results.
      const Instruction& prior = kept[it->second];
      if (prior.results.size() != ins.results.size()) {
        kept.push_back(std::move(ins));
        continue;
      }
      for (size_t i = 0; i < ins.results.size(); ++i) {
        replacement[static_cast<size_t>(ins.results[i])] = prior.results[i];
      }
      changed = true;
    }
    if (!changed) return Effect::None();
    program->ReplaceInstructions(std::move(kept));
    return Effect::Rewrite();
  }
};

// ---------------------------------------------------------------------------
// Dead code elimination
// ---------------------------------------------------------------------------

class DeadCodePass : public Pass {
 public:
  const char* name() const override { return "dead_code"; }

  Result<Effect> Apply(Program* program, const analysis::Facts&) override {
    // Liveness: a variable is live if consumed by a kept instruction;
    // an instruction is kept if impure or any result is live. One backward
    // sweep suffices because defs precede uses (SSA).
    std::vector<bool> live(program->num_variables(), false);
    std::vector<bool> keep(program->size(), false);
    const auto& instructions = program->instructions();
    for (size_t i = instructions.size(); i-- > 0;) {
      const Instruction& ins = instructions[i];
      bool needed = !SideEffectFree(ins);
      for (int r : ins.results) {
        if (live[static_cast<size_t>(r)]) needed = true;
      }
      keep[i] = needed;
      if (needed) {
        for (const Argument& arg : ins.args) {
          if (arg.kind == Argument::Kind::kVar) {
            live[static_cast<size_t>(arg.var)] = true;
          }
        }
      }
    }
    std::vector<Instruction> kept;
    kept.reserve(instructions.size());
    bool changed = false;
    for (size_t i = 0; i < instructions.size(); ++i) {
      if (keep[i]) {
        kept.push_back(instructions[i]);
      } else {
        changed = true;
      }
    }
    if (!changed) return Effect::None();
    program->ReplaceInstructions(std::move(kept));
    return Effect::Rewrite();
  }
};

// ---------------------------------------------------------------------------
// Mitosis
// ---------------------------------------------------------------------------

class MitosisPass : public Pass {
 public:
  explicit MitosisPass(int pieces) : pieces_(pieces) {}

  const char* name() const override { return "mitosis"; }

  Result<Effect> Apply(Program* program, const analysis::Facts&) override {
    if (pieces_ < 2) return Effect::None();
    // MonetDB-style mitosis + mergetable: the candidate list of a scan
    // (a sql.tid result) is sliced into `pieces_` partitions; the whole
    // select/projection ladder consuming it is cloned per slice; results
    // are reassembled with mat.pack only where a non-partitionable
    // consumer (join build, group, aggregate, result sink...) needs the
    // whole column. Candidate order is preserved, so results are
    // bit-identical to the unpartitioned plan.
    std::vector<bool> is_tid(program->num_variables(), false);
    for (const Instruction& ins : program->instructions()) {
      if (ins.module == "sql" && ins.function == "tid" &&
          ins.results.size() == 1) {
        is_tid[static_cast<size_t>(ins.results[0])] = true;
      }
    }

    // var -> its per-piece replacement variables (unpacked representation).
    std::map<int, std::vector<int>> partitioned;
    std::map<int, bool> packed;
    std::vector<Instruction> out;
    bool changed = false;

    // Emits mat.pack(pieces) -> var once, right before the first consumer
    // that needs the whole value.
    auto ensure_packed = [&](int var) {
      auto it = partitioned.find(var);
      if (it == partitioned.end() || packed[var]) return;
      Instruction pack;
      pack.module = "mat";
      pack.function = "pack";
      pack.results = {var};
      for (int piece : it->second) pack.args.push_back(Argument::Var(piece));
      out.push_back(std::move(pack));
      packed[var] = true;
    };

    // Returns the per-piece vars of `var`, slicing it on the spot when it
    // is a tid candidate list that has not been partitioned yet.
    auto pieces_of = [&](int var) -> std::vector<int>* {
      auto it = partitioned.find(var);
      if (it != partitioned.end()) return &it->second;
      if (!is_tid[static_cast<size_t>(var)]) return nullptr;
      std::vector<int> slices;
      for (int piece = 0; piece < pieces_; ++piece) {
        int slice = program->AddVariable(MalType::Bat(DataType::kOid));
        Instruction part;
        part.module = "bat";
        part.function = "partition";
        part.results = {slice};
        part.args = {Argument::Var(var), Argument::Const(Value::Int(pieces_)),
                     Argument::Const(Value::Int(piece))};
        out.push_back(std::move(part));
        slices.push_back(slice);
      }
      auto [ins_it, ok] = partitioned.emplace(var, std::move(slices));
      (void)ok;
      // The tid itself stays materialized (sql.tid already assigned it).
      packed[var] = true;
      return &ins_it->second;
    };

    for (const Instruction& ins : program->instructions()) {
      // Selects with a partitionable candidate list (arg 1).
      bool is_select =
          ins.module == "algebra" &&
          (ins.function == "select" || ins.function == "thetaselect" ||
           ins.function == "likeselect") &&
          ins.results.size() == 1 && ins.args.size() >= 2 &&
          ins.args[1].kind == Argument::Kind::kVar;
      // Projections over a partitioned candidate list (arg 0).
      bool is_projection = ins.module == "algebra" &&
                           ins.function == "projection" &&
                           ins.results.size() == 1 && ins.args.size() == 2 &&
                           ins.args[0].kind == Argument::Kind::kVar;

      if (is_select) {
        std::vector<int>* slices = pieces_of(ins.args[1].var);
        if (slices != nullptr) {
          // The value column (arg 0) stays whole.
          if (ins.args[0].kind == Argument::Kind::kVar) {
            ensure_packed(ins.args[0].var);
          }
          std::vector<int> result_pieces;
          for (int slice : *slices) {
            int res = program->AddVariable(MalType::Bat(DataType::kOid));
            Instruction clone = ins;
            clone.results = {res};
            clone.args[1] = Argument::Var(slice);
            out.push_back(std::move(clone));
            result_pieces.push_back(res);
          }
          partitioned[ins.results[0]] = std::move(result_pieces);
          changed = true;
          continue;
        }
      }
      if (is_projection) {
        auto it = partitioned.find(ins.args[0].var);
        if (it != partitioned.end() && !packed[ins.args[0].var]) {
          if (ins.args[1].kind == Argument::Kind::kVar) {
            ensure_packed(ins.args[1].var);
          }
          MalType result_type =
              program->variable(ins.results[0]).type;
          std::vector<int> result_pieces;
          for (int slice : it->second) {
            int res = program->AddVariable(result_type);
            Instruction clone = ins;
            clone.results = {res};
            clone.args[0] = Argument::Var(slice);
            out.push_back(std::move(clone));
            result_pieces.push_back(res);
          }
          partitioned[ins.results[0]] = std::move(result_pieces);
          changed = true;
          continue;
        }
      }

      // Any other consumer needs whole inputs: materialize on demand.
      for (const Argument& arg : ins.args) {
        if (arg.kind == Argument::Kind::kVar) ensure_packed(arg.var);
      }
      out.push_back(ins);
    }
    if (!changed) return Effect::None();
    program->ReplaceInstructions(std::move(out));
    return Effect::Rewrite();
  }

 private:
  int pieces_;
};

// ---------------------------------------------------------------------------
// Dataflow marker / admin pruning
// ---------------------------------------------------------------------------

class DataflowMarkerPass : public Pass {
 public:
  const char* name() const override { return "dataflow_marker"; }

  Result<Effect> Apply(Program* program, const analysis::Facts&) override {
    for (const Instruction& ins : program->instructions()) {
      if (ins.module == "language" && ins.function == "dataflow") {
        return Effect::None();  // already marked
      }
    }
    Instruction marker;
    marker.module = "language";
    marker.function = "dataflow";
    program->InsertInstruction(0, std::move(marker));
    return Effect::Insert({0});
  }
};

class AdminPrunePass : public Pass {
 public:
  const char* name() const override { return "admin_prune"; }

  Result<Effect> Apply(Program* program, const analysis::Facts&) override {
    std::vector<Instruction> kept;
    bool changed = false;
    for (const Instruction& ins : program->instructions()) {
      if (ins.module == "language") {
        changed = true;
        continue;
      }
      kept.push_back(ins);
    }
    if (!changed) return Effect::None();
    program->ReplaceInstructions(std::move(kept));
    return Effect::Rewrite();
  }
};

}  // namespace

std::unique_ptr<Pass> MakeConstantFoldingPass() {
  return std::make_unique<ConstantFoldingPass>();
}
std::unique_ptr<Pass> MakeCommonSubexpressionPass() {
  return std::make_unique<CommonSubexpressionPass>();
}
std::unique_ptr<Pass> MakeDeadCodePass() {
  return std::make_unique<DeadCodePass>();
}
std::unique_ptr<Pass> MakeMitosisPass(int pieces) {
  return std::make_unique<MitosisPass>(pieces);
}
std::unique_ptr<Pass> MakeDataflowMarkerPass() {
  return std::make_unique<DataflowMarkerPass>();
}
std::unique_ptr<Pass> MakeAdminPrunePass() {
  return std::make_unique<AdminPrunePass>();
}

}  // namespace stetho::optimizer
