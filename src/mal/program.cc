#include "mal/program.h"

#include <algorithm>

#include <unordered_map>

#include "common/string_util.h"

namespace stetho::mal {

int Program::AddVariable(MalType type) {
  ++variables_version_;
  int id = static_cast<int>(variables_.size());
  variables_.push_back(Variable{id, StrFormat("X_%d", id), type});
  return id;
}

int Program::AddNamedVariable(std::string name, MalType type) {
  ++variables_version_;
  int id = static_cast<int>(variables_.size());
  variables_.push_back(Variable{id, std::move(name), type});
  return id;
}

int Program::FindVariable(const std::string& name) const {
  for (const Variable& v : variables_) {
    if (v.name == name) return v.id;
  }
  return -1;
}

void Program::AnnotateCardinality(int var, int64_t lo, int64_t hi) {
  if (var < 0 || static_cast<size_t>(var) >= variables_.size()) return;
  if (lo < 0 || hi < lo) return;
  ++variables_version_;
  variables_[static_cast<size_t>(var)].card_lo = lo;
  variables_[static_cast<size_t>(var)].card_hi = hi;
}

int Program::Add(std::string module, std::string function,
                 std::vector<int> results, std::vector<Argument> args) {
  ++instructions_version_;
  Instruction ins;
  ins.pc = static_cast<int>(instructions_.size());
  ins.module = std::move(module);
  ins.function = std::move(function);
  ins.results = std::move(results);
  ins.args = std::move(args);
  instructions_.push_back(std::move(ins));
  return instructions_.back().pc;
}

void Program::ReplaceInstructions(std::vector<Instruction> instructions) {
  ++instructions_version_;
  instructions_ = std::move(instructions);
  for (size_t i = 0; i < instructions_.size(); ++i) {
    instructions_[i].pc = static_cast<int>(i);
  }
}

void Program::InsertInstruction(int pc, Instruction ins) {
  ++instructions_version_;
  instructions_.insert(instructions_.begin() + pc, std::move(ins));
  for (size_t i = static_cast<size_t>(pc); i < instructions_.size(); ++i) {
    instructions_[i].pc = static_cast<int>(i);
  }
}

Dependencies Program::BuildDependencies() const {
  const size_t n = instructions_.size();
  const size_t nvars = variables_.size();
  Dependencies deps;
  deps.producers_.offsets.reserve(n + 1);
  std::vector<int> consumer_count(n + 1, 0);
  std::vector<int> reader_count(nvars + 1, 0);
  // writer[v]: the pc that most recently assigned v; last_row[p]: the last
  // pc whose row lists producer p (drops repeats in O(1)).
  std::vector<int> writer(nvars, -1);
  std::vector<int> last_row(n, -1);
  for (size_t pc = 0; pc < n; ++pc) {
    const Instruction& ins = instructions_[pc];
    for (const Argument& arg : ins.args) {
      if (arg.kind != Argument::Kind::kVar) continue;
      // Out-of-range references are a Validate() error; the lint path walks
      // such malformed programs to diagnose them, so skip rather than index.
      if (arg.var < 0 || static_cast<size_t>(arg.var) >= nvars) continue;
      ++reader_count[static_cast<size_t>(arg.var) + 1];
      const int w = writer[static_cast<size_t>(arg.var)];
      if (w < 0 || last_row[static_cast<size_t>(w)] == static_cast<int>(pc)) {
        continue;
      }
      last_row[static_cast<size_t>(w)] = static_cast<int>(pc);
      deps.producers_.items.push_back(w);
      ++consumer_count[static_cast<size_t>(w) + 1];
    }
    deps.producers_.EndRow();
    for (int r : ins.results) {
      if (r < 0 || static_cast<size_t>(r) >= nvars) continue;
      writer[static_cast<size_t>(r)] = static_cast<int>(pc);
    }
  }

  // Counting pass: walking the pcs in order fills each consumer and reader
  // row in ascending pc order.
  for (size_t i = 0; i < n; ++i) consumer_count[i + 1] += consumer_count[i];
  for (size_t v = 0; v < nvars; ++v) reader_count[v + 1] += reader_count[v];
  deps.consumers_.offsets = consumer_count;
  deps.readers_.offsets = reader_count;
  deps.consumers_.items.resize(deps.producers_.items.size());
  deps.readers_.items.resize(static_cast<size_t>(reader_count[nvars]));
  for (size_t pc = 0; pc < n; ++pc) {
    for (int p : deps.producers_.row(static_cast<int>(pc))) {
      deps.consumers_.items[static_cast<size_t>(
          consumer_count[static_cast<size_t>(p)]++)] = static_cast<int>(pc);
    }
    for (const Argument& arg : instructions_[pc].args) {
      if (arg.kind != Argument::Kind::kVar || arg.var < 0 ||
          static_cast<size_t>(arg.var) >= nvars) {
        continue;
      }
      deps.readers_.items[static_cast<size_t>(
          reader_count[static_cast<size_t>(arg.var)]++)] = static_cast<int>(pc);
    }
  }
  return deps;
}

std::string Program::InstructionToString(const Instruction& ins) const {
  std::string out;
  AppendInstruction(ins, &out);
  return out;
}

void Program::AppendInstruction(const Instruction& ins,
                                std::string* out_ptr) const {
  std::string& out = *out_ptr;
  if (!ins.results.empty()) {
    if (ins.results.size() > 1) out += "(";
    for (size_t i = 0; i < ins.results.size(); ++i) {
      if (i > 0) out += ",";
      const Variable& v = variables_[static_cast<size_t>(ins.results[i])];
      out += v.name;
      v.type.AppendTo(&out);
    }
    if (ins.results.size() > 1) out += ")";
    out += " := ";
  }
  out += ins.module;
  out += ".";
  out += ins.function;
  out += "(";
  for (size_t i = 0; i < ins.args.size(); ++i) {
    if (i > 0) out += ",";
    const Argument& a = ins.args[i];
    if (a.kind == Argument::Kind::kVar) {
      out += variables_[static_cast<size_t>(a.var)].name;
    } else {
      a.constant.AppendTo(&out);
    }
  }
  out += ");";
}

std::string Program::ToString() const {
  std::string out = "function " + function_name_ + "():void;\n";
  // Cardinality annotations travel as structured pragma comments so that a
  // listing written to disk keeps the bounds the SQL compiler attached (the
  // memory-footprint model is unusable without them). The parser recognizes
  // exactly this shape and re-attaches the interval; any other comment stays
  // free-form. Statement text itself is untouched, so the dot-label contract
  // (statement text == node label) is unaffected.
  // Name order, not id order: a parse re-assigns ids by first mention, so
  // only a name-keyed order makes print -> parse -> print a fixpoint.
  std::vector<const Variable*> annotated;
  for (const Variable& v : variables_) {
    if (v.has_cardinality()) annotated.push_back(&v);
  }
  std::sort(annotated.begin(), annotated.end(),
            [](const Variable* a, const Variable* b) { return a->name < b->name; });
  for (const Variable* v : annotated) {
    out += StrFormat("# card %s %lld..%lld\n", v->name.c_str(),
                     static_cast<long long>(v->card_lo),
                     static_cast<long long>(v->card_hi));
  }
  for (const Instruction& ins : instructions_) {
    out += "    ";
    AppendInstruction(ins, &out);
    out += "\n";
  }
  out += "end " + function_name_ + ";\n";
  return out;
}

Status Program::Validate() const {
  std::vector<bool> defined(variables_.size(), false);
  std::vector<bool> assigned(variables_.size(), false);
  for (const Instruction& ins : instructions_) {
    for (const Argument& arg : ins.args) {
      if (arg.kind != Argument::Kind::kVar) continue;
      if (arg.var < 0 || static_cast<size_t>(arg.var) >= variables_.size()) {
        return Status::Internal(
            StrFormat("pc=%d references out-of-range variable %d", ins.pc,
                      arg.var));
      }
      if (!defined[static_cast<size_t>(arg.var)]) {
        return Status::Internal(StrFormat(
            "pc=%d uses variable %s before definition", ins.pc,
            variables_[static_cast<size_t>(arg.var)].name.c_str()));
      }
    }
    for (int r : ins.results) {
      if (r < 0 || static_cast<size_t>(r) >= variables_.size()) {
        return Status::Internal(
            StrFormat("pc=%d assigns out-of-range variable %d", ins.pc, r));
      }
      if (assigned[static_cast<size_t>(r)]) {
        return Status::Internal(StrFormat(
            "pc=%d violates SSA: variable %s assigned twice", ins.pc,
            variables_[static_cast<size_t>(r)].name.c_str()));
      }
      assigned[static_cast<size_t>(r)] = true;
      defined[static_cast<size_t>(r)] = true;
    }
  }
  return Status::OK();
}

}  // namespace stetho::mal
