#ifndef STETHO_ENGINE_DEBUGGER_H_
#define STETHO_ENGINE_DEBUGGER_H_

#include <set>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "engine/kernel.h"
#include "mal/program.h"
#include "storage/table.h"

namespace stetho::engine {

/// The GDB-like MAL debugger the paper mentions (§2: "MonetDB provides a
/// GDB-like MAL debugger for runtime inspection") — the tool Stethoscope
/// improves upon. Interprets a plan sequentially one instruction at a time
/// with breakpoints and register inspection. Unlike the production
/// interpreter, registers are never garbage-collected so every intermediate
/// stays inspectable.
class MalDebugger {
 public:
  /// Prepares execution of `program` (validated) against `catalog`.
  static Result<std::unique_ptr<MalDebugger>> Create(
      const mal::Program* program, storage::Catalog* catalog,
      const ModuleRegistry* registry = ModuleRegistry::Default());

  /// --- breakpoints ---
  /// Break before the instruction at `pc`.
  Status BreakAt(int pc);
  /// Break before every instruction of `module` (e.g. "algebra") or a
  /// specific "module.function".
  void BreakOn(const std::string& operation);
  void ClearBreakpoints();
  std::vector<std::string> ListBreakpoints() const;

  /// --- execution control ---
  /// Executes exactly one instruction. OutOfRange at end of plan.
  Status Step();
  /// Runs until a breakpoint fires or the plan ends. Returns the pc it
  /// stopped *before* (-1 when the plan finished).
  Result<int> Continue();
  /// True once every instruction executed.
  bool Finished() const { return next_pc_ >= static_cast<int>(program_->size()); }
  /// The pc of the next instruction to execute (the "current line").
  int next_pc() const { return next_pc_; }

  /// --- inspection ---
  /// The listing line of the next instruction ("gdb: list").
  std::string CurrentInstruction() const;
  /// Renders a variable's value by name ("X_3"): scalars inline, BATs as
  /// type, length, and a head sample ("gdb: print").
  Result<std::string> InspectVariable(const std::string& name) const;
  /// All assigned variables so far with compact values ("info locals").
  std::vector<std::string> ListVariables() const;
  /// The register of variable `id` once an instruction assigned it; nullptr
  /// before that and for out-of-range ids.
  const RegisterValue* Register(int id) const;
  /// Rows of the accumulated result set so far.
  size_t results_so_far() const { return results_.size(); }

 private:
  MalDebugger(const mal::Program* program, storage::Catalog* catalog,
              const ModuleRegistry* registry);

  bool HitsBreakpoint(int pc) const;
  Status ExecuteAt(int pc);

  const mal::Program* program_;
  const ModuleRegistry* registry_;
  ExecContext ctx_;
  std::vector<RegisterValue> registers_;
  std::vector<bool> assigned_;
  std::vector<ResultColumn> results_;
  int next_pc_ = 0;
  /// Pc of the breakpoint stop being resumed from (kNoStop otherwise).
  static constexpr int kNoStop = -2;
  int stopped_at_ = kNoStop;
  std::set<int> pc_breakpoints_;
  std::set<std::string> op_breakpoints_;
};

}  // namespace stetho::engine

#endif  // STETHO_ENGINE_DEBUGGER_H_
