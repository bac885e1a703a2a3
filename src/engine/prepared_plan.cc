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
    : program_(&program), validation_(program.Validate()) {
  const size_t n = program.size();
  text_begin_.reserve(n + 1);
  kernels_.reserve(n);
  signatures_.reserve(n);
  args_.offsets.reserve(n + 1);
  readers_.assign(program.num_variables(), 0);

  mal::ShapeHasher hasher;
  const mal::Instruction* previous = nullptr;
  const KernelFn* kernel = nullptr;
  const analysis::KernelSignature* signature = nullptr;
  for (const mal::Instruction& ins : program.instructions()) {
    const size_t begin = text_.size();
    text_begin_.push_back(begin);
    program.AppendInstruction(ins, &text_);
    hasher.Mix(std::string_view(text_).substr(begin));

    // Mitosis plans repeat one operation across consecutive partitions.
    if (previous == nullptr || ins.module != previous->module ||
        ins.function != previous->function) {
      auto found = registry->Lookup(ins.module, ins.function);
      kernel = found.ok() ? found.value() : nullptr;
      signature = registry->Signature(ins.module, ins.function);
    }
    previous = &ins;
    kernels_.push_back(kernel);
    signatures_.push_back(signature);

    for (const mal::Argument& arg : ins.args) {
      if (arg.kind == mal::Argument::Kind::kVar) {
        args_.items.push_back(arg.var);
        ++readers_[static_cast<size_t>(arg.var)];
      } else {
        args_.items.push_back(~static_cast<int>(constants_.size()));
        constants_.push_back(RegisterValue::Scalar(arg.constant));
      }
    }
    args_.EndRow();
  }
  text_begin_.push_back(text_.size());
  shape_hash_ = hasher.value();

  const std::vector<std::vector<int>> deps = program.BuildDependencies();
  std::vector<int> consumers(n, 0);
  for (const std::vector<int>& producers : deps) {
    deps_.items.insert(deps_.items.end(), producers.begin(), producers.end());
    deps_.EndRow();
    for (int producer : producers) ++consumers[static_cast<size_t>(producer)];
  }
  // Consumers in ascending pc order, laid out by a counting sort.
  dependents_.offsets.resize(n + 1);
  for (size_t pc = 0; pc < n; ++pc) {
    dependents_.offsets[pc + 1] = dependents_.offsets[pc] + consumers[pc];
  }
  dependents_.items.resize(deps_.items.size());
  std::vector<int> next(dependents_.offsets.begin(),
                        dependents_.offsets.end() - 1);
  for (size_t pc = 0; pc < n; ++pc) {
    for (int producer : deps[pc]) {
      dependents_.items[static_cast<size_t>(
          next[static_cast<size_t>(producer)]++)] = static_cast<int>(pc);
    }
  }
}

std::shared_ptr<const PreparedPlan> PreparedPlan::Prepare(
    mal::Program program, const ModuleRegistry* registry) {
  auto owned = std::make_shared<OwnedPlan>(std::move(program), registry);
  return std::shared_ptr<const PreparedPlan>(owned, &owned->plan);
}

}  // namespace stetho::engine
