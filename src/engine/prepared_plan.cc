#include "engine/prepared_plan.h"

#include <utility>

namespace stetho::engine {
namespace {

/// A program and the plan prepared over it, allocated together so the plan
/// can borrow the program for as long as the shared pointer lives.
struct OwnedPlan {
  OwnedPlan(mal::Program p, const ModuleRegistry* registry)
      : program(std::move(p)), plan(program, registry) {}

  mal::Program program;
  PreparedPlan plan;
};

}  // namespace

PreparedPlan::PreparedPlan(const mal::Program& program,
                           const ModuleRegistry* registry)
    : program_(&program),
      validation_(program.Validate()),
      deps_(program.BuildDependencies()) {
  const size_t n = program.size();
  text_begin_.reserve(n + 1);
  kernels_.reserve(n);
  args_.offsets.reserve(n + 1);

  mal::ShapeHasher hasher;
  const mal::Instruction* previous = nullptr;
  const Kernel* kernel = nullptr;
  for (const mal::Instruction& ins : program.instructions()) {
    const size_t begin = text_.size();
    text_begin_.push_back(begin);
    program.AppendInstruction(ins, &text_);
    hasher.Mix(std::string_view(text_).substr(begin));

    // Mitosis plans repeat one operation across consecutive partitions.
    if (previous == nullptr || ins.module != previous->module ||
        ins.function != previous->function) {
      kernel = registry->Resolve(ins.module, ins.function);
    }
    previous = &ins;
    kernels_.push_back(kernel);

    for (const mal::Argument& arg : ins.args) {
      if (arg.kind == mal::Argument::Kind::kVar) {
        args_.items.push_back(arg.var);
      } else {
        args_.items.push_back(~static_cast<int>(constants_.size()));
        constants_.push_back(RegisterValue::Scalar(arg.constant));
      }
    }
    args_.EndRow();
  }
  text_begin_.push_back(text_.size());
  shape_hash_ = hasher.value();
}

std::shared_ptr<const PreparedPlan> PreparedPlan::Prepare(
    mal::Program program, const ModuleRegistry* registry) {
  auto owned = std::make_shared<OwnedPlan>(std::move(program), registry);
  return std::shared_ptr<const PreparedPlan>(owned, &owned->plan);
}

}  // namespace stetho::engine
