#include "engine/debugger.h"

#include "common/string_util.h"

namespace stetho::engine {

MalDebugger::MalDebugger(const mal::Program* program,
                         storage::Catalog* catalog,
                         const ModuleRegistry* registry)
    : program_(program),
      registry_(registry),
      ctx_(catalog, SteadyClock::Default()),
      registers_(program->num_variables()),
      assigned_(program->num_variables(), false) {}

Result<std::unique_ptr<MalDebugger>> MalDebugger::Create(
    const mal::Program* program, storage::Catalog* catalog,
    const ModuleRegistry* registry) {
  STETHO_RETURN_IF_ERROR(program->Validate());
  return std::unique_ptr<MalDebugger>(
      new MalDebugger(program, catalog, registry));
}

Status MalDebugger::BreakAt(int pc) {
  if (pc < 0 || static_cast<size_t>(pc) >= program_->size()) {
    return Status::OutOfRange(
        StrFormat("no instruction at pc=%d (plan has %zu)", pc,
                  program_->size()));
  }
  pc_breakpoints_.insert(pc);
  return Status::OK();
}

void MalDebugger::BreakOn(const std::string& operation) {
  op_breakpoints_.insert(operation);
}

void MalDebugger::ClearBreakpoints() {
  pc_breakpoints_.clear();
  op_breakpoints_.clear();
}

std::vector<std::string> MalDebugger::ListBreakpoints() const {
  std::vector<std::string> out;
  for (int pc : pc_breakpoints_) out.push_back(StrFormat("pc=%d", pc));
  for (const std::string& op : op_breakpoints_) out.push_back(op);
  return out;
}

bool MalDebugger::HitsBreakpoint(int pc) const {
  if (pc_breakpoints_.count(pc)) return true;
  if (op_breakpoints_.empty()) return false;
  const mal::Instruction& ins = program_->instruction(pc);
  return op_breakpoints_.count(ins.module) > 0 ||
         op_breakpoints_.count(ins.FullName()) > 0;
}

Status MalDebugger::ExecuteAt(int pc) {
  const mal::Instruction& ins = program_->instruction(pc);
  STETHO_ASSIGN_OR_RETURN(const KernelFn* kernel,
                          registry_->Lookup(ins.module, ins.function));
  KernelArgs args;
  args.ins = &ins;
  args.ctx = &ctx_;
  std::vector<RegisterValue> const_storage;
  const_storage.reserve(ins.args.size());
  for (const mal::Argument& arg : ins.args) {
    if (arg.kind == mal::Argument::Kind::kConst) {
      const_storage.push_back(RegisterValue::Scalar(arg.constant));
    }
  }
  size_t const_i = 0;
  for (const mal::Argument& arg : ins.args) {
    if (arg.kind == mal::Argument::Kind::kVar) {
      args.args.push_back(&registers_[static_cast<size_t>(arg.var)]);
    } else {
      args.args.push_back(&const_storage[const_i++]);
    }
  }
  for (int r : ins.results) {
    args.results.push_back(&registers_[static_cast<size_t>(r)]);
  }
  Status st = (*kernel)(args);
  if (!st.ok()) {
    return Status(st.code(),
                  StrFormat("pc=%d %s: %s", pc,
                            program_->InstructionToString(ins).c_str(),
                            st.message().c_str()));
  }
  for (int r : ins.results) assigned_[static_cast<size_t>(r)] = true;
  for (ResultColumn& rc : ctx_.TakeResults()) {
    results_.push_back(std::move(rc));
  }
  return Status::OK();
}

Status MalDebugger::Step() {
  if (Finished()) return Status::OutOfRange("plan finished");
  STETHO_RETURN_IF_ERROR(ExecuteAt(next_pc_));
  ++next_pc_;
  stopped_at_ = kNoStop;
  return Status::OK();
}

Result<int> MalDebugger::Continue() {
  while (!Finished()) {
    // Stop *before* a breakpointed instruction — unless we are resuming
    // from exactly that stop (gdb semantics: continue makes progress).
    if (next_pc_ != stopped_at_ && HitsBreakpoint(next_pc_)) {
      stopped_at_ = next_pc_;
      return next_pc_;
    }
    STETHO_RETURN_IF_ERROR(Step());
  }
  return -1;
}

std::string MalDebugger::CurrentInstruction() const {
  if (Finished()) return "<end of plan>";
  return StrFormat(
      "pc=%d  %s", next_pc_,
      program_->InstructionToString(program_->instruction(next_pc_)).c_str());
}

namespace {

std::string RenderRegister(const RegisterValue& reg) {
  if (!reg.is_bat()) return reg.scalar.ToString();
  const storage::ColumnPtr& bat = reg.bat;
  if (bat == nullptr) return "<freed>";
  std::string out = StrFormat("bat[%s] count=%zu [",
                              storage::DataTypeName(bat->type()) + 1,
                              bat->size());
  for (size_t i = 0; i < bat->size() && i < 5; ++i) {
    if (i > 0) out += ", ";
    out += bat->GetValue(i).ToString();
  }
  if (bat->size() > 5) out += ", ...";
  out += "]";
  return out;
}

}  // namespace

Result<std::string> MalDebugger::InspectVariable(const std::string& name) const {
  int id = program_->FindVariable(name);
  if (id < 0) return Status::NotFound("no variable '" + name + "'");
  if (!assigned_[static_cast<size_t>(id)]) {
    return name + " = <unassigned>";
  }
  return name + " = " + RenderRegister(registers_[static_cast<size_t>(id)]);
}

const RegisterValue* MalDebugger::Register(int id) const {
  if (id < 0 || static_cast<size_t>(id) >= registers_.size() ||
      !assigned_[static_cast<size_t>(id)]) {
    return nullptr;
  }
  return &registers_[static_cast<size_t>(id)];
}

std::vector<std::string> MalDebugger::ListVariables() const {
  std::vector<std::string> out;
  for (size_t v = 0; v < registers_.size(); ++v) {
    if (!assigned_[v]) continue;
    out.push_back(program_->variable(static_cast<int>(v)).name + " = " +
                  RenderRegister(registers_[v]));
  }
  return out;
}

}  // namespace stetho::engine
