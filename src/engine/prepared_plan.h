#ifndef STETHO_ENGINE_PREPARED_PLAN_H_
#define STETHO_ENGINE_PREPARED_PLAN_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/signatures.h"
#include "common/status.h"
#include "engine/kernel.h"
#include "engine/register.h"
#include "mal/program.h"

namespace stetho::engine {

/// A MAL plan prepared once for every consumer that runs on each query: the
/// interpreter, the dot writer, the progress-model cache, the profile fold
/// and the online monitor read it instead of re-deriving its facts.
/// Preparing
///  - renders each statement once (Program::InstructionToString's text, kept
///    in one buffer) and mixes the plan-shape hash from it
///    (mal::ShapeHasher, which analysis::PlanShapeHash also uses);
///  - resolves each kernel and its signature once;
///  - materialises constant operands as read-only registers;
///  - lists each instruction's argument registers;
///  - builds the plan's def-use index (Program::BuildDependencies).
/// Immutable after construction, so the server's query thread, the
/// interpreter's workers and a monitor's threads share one plan without
/// locking. Nothing is cached across plans: a rewritten program is prepared
/// again, so there is nothing to invalidate.
class PreparedPlan {
 public:
  /// Prepares `program`, which must outlive the plan unchanged and whose
  /// variable ids must be in range (every parsed, compiled or optimized
  /// program's are). A plan failing Program::Validate is still prepared;
  /// Interpreter::Execute refuses it with validation().
  explicit PreparedPlan(
      const mal::Program& program,
      const ModuleRegistry* registry = ModuleRegistry::Default());

  /// A shared plan that owns `program` (moved in, never copied).
  static std::shared_ptr<const PreparedPlan> Prepare(
      mal::Program program,
      const ModuleRegistry* registry = ModuleRegistry::Default());

  PreparedPlan(const PreparedPlan&) = delete;
  PreparedPlan& operator=(const PreparedPlan&) = delete;

  const mal::Program& program() const { return *program_; }
  size_t size() const { return kernels_.size(); }
  /// Program::Validate() of the plan.
  const Status& validation() const { return validation_; }
  /// The function-name-blind plan-shape hash; equals
  /// analysis::PlanShapeHash(program()).
  uint64_t shape_hash() const { return shape_hash_; }

  /// The rendered statement of `pc`.
  std::string_view text(int pc) const {
    const size_t i = static_cast<size_t>(pc);
    return std::string_view(text_).substr(text_begin_[i],
                                          text_begin_[i + 1] - text_begin_[i]);
  }
  /// The kernel of `pc`; nullptr when the registry has none, and Execute
  /// fails at that pc with NotFound.
  const KernelFn* kernel(int pc) const {
    return kernels_[static_cast<size_t>(pc)];
  }
  /// The kernel's signature; nullptr for unknown operations and kernels
  /// registered without one.
  const analysis::KernelSignature* signature(int pc) const {
    return signatures_[static_cast<size_t>(pc)];
  }

  /// The registers `pc` reads, one per argument in order: a variable's
  /// register index (>= 0), or a negative index naming a constant().
  std::span<const int> args(int pc) const { return args_.row(pc); }
  /// The materialised constant behind a negative argument register.
  const RegisterValue& constant(int reg) const {
    return constants_[static_cast<size_t>(~reg)];
  }
  /// The plan's producers, consumers and readers: the interpreter
  /// dispatches on them and releases a register after its last reader.
  const mal::Dependencies& deps() const { return deps_; }

 private:
  const mal::Program* program_;
  Status validation_;
  uint64_t shape_hash_ = 0;
  std::string text_;                 // every statement, back to back
  std::vector<size_t> text_begin_;   // per pc, plus the end
  std::vector<const KernelFn*> kernels_;
  std::vector<const analysis::KernelSignature*> signatures_;
  std::vector<RegisterValue> constants_;
  mal::IntRows args_;
  mal::Dependencies deps_;
};

}  // namespace stetho::engine

#endif  // STETHO_ENGINE_PREPARED_PLAN_H_
