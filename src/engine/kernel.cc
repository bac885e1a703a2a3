#include "engine/kernel.h"

#include <algorithm>

#include "common/string_util.h"

namespace stetho::engine {

void ExecContext::AddResult(ResultColumn column) {
  std::lock_guard<std::mutex> lock(mu_);
  results_.push_back(std::move(column));
}

std::vector<ResultColumn> ExecContext::TakeResults() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ResultColumn> out;
  out.swap(results_);
  std::sort(out.begin(), out.end(),
            [](const ResultColumn& a, const ResultColumn& b) {
              return a.order < b.order;
            });
  return out;
}

Status ModuleRegistry::Register(const std::string& module,
                                const std::string& function, KernelFn fn,
                                analysis::KernelSignature signature) {
  return Add(module, function, Entry{std::move(fn), std::move(signature)});
}

Status ModuleRegistry::Register(const std::string& module,
                                const std::string& function, KernelFn fn) {
  return Add(module, function, Entry{std::move(fn), std::nullopt});
}

Status ModuleRegistry::Add(const std::string& module,
                           const std::string& function, Entry entry) {
  auto [it, inserted] =
      kernels_.emplace(module + "." + function, std::move(entry));
  if (!inserted) {
    return Status::AlreadyExists("kernel '" + it->first +
                                 "' already registered");
  }
  return Status::OK();
}

Result<const KernelFn*> ModuleRegistry::Lookup(
    const std::string& module, const std::string& function) const {
  auto it = kernels_.find(module + "." + function);
  if (it == kernels_.end()) {
    return Status::NotFound("no kernel for '" + module + "." + function + "'");
  }
  return &it->second.fn;
}

const analysis::KernelSignature* ModuleRegistry::Signature(
    const std::string& module, const std::string& function) const {
  auto it = kernels_.find(module + "." + function);
  if (it == kernels_.end() || !it->second.signature.has_value()) {
    return nullptr;
  }
  return &*it->second.signature;
}

std::vector<std::string> ModuleRegistry::ListKernels() const {
  std::vector<std::string> out;
  out.reserve(kernels_.size());
  for (const auto& [name, entry] : kernels_) out.push_back(name);
  return out;
}

const ModuleRegistry* ModuleRegistry::Default() {
  static const ModuleRegistry* registry = [] {
    auto* r = new ModuleRegistry();
    RegisterCoreKernels(r);
    RegisterAlgebraKernels(r);
    RegisterGroupAggrKernels(r);
    return r;
  }();
  return registry;
}

Status ExpectArity(const KernelArgs& a, size_t num_args, size_t num_results) {
  if (a.args.size() != num_args || a.results.size() != num_results) {
    return Status::InvalidArgument(StrFormat(
        "%s: expected %zu args / %zu results, got %zu / %zu",
        a.ins->FullName().c_str(), num_args, num_results, a.args.size(),
        a.results.size()));
  }
  return Status::OK();
}

Result<storage::ColumnPtr> ArgBat(const KernelArgs& a, size_t i) {
  if (i >= a.args.size() || !a.args[i]->is_bat()) {
    return Status::TypeError(
        StrFormat("%s: argument %zu must be a BAT", a.ins->FullName().c_str(), i));
  }
  return a.args[i]->bat;
}

Result<storage::Value> ArgScalar(const KernelArgs& a, size_t i) {
  if (i >= a.args.size() || a.args[i]->is_bat()) {
    return Status::TypeError(StrFormat("%s: argument %zu must be a scalar",
                                       a.ins->FullName().c_str(), i));
  }
  return a.args[i]->scalar;
}

Result<int64_t> ArgInt(const KernelArgs& a, size_t i) {
  STETHO_ASSIGN_OR_RETURN(storage::Value v, ArgScalar(a, i));
  return v.ToInt();
}

Result<double> ArgDouble(const KernelArgs& a, size_t i) {
  STETHO_ASSIGN_OR_RETURN(storage::Value v, ArgScalar(a, i));
  return v.ToDouble();
}

Result<std::string> ArgString(const KernelArgs& a, size_t i) {
  STETHO_ASSIGN_OR_RETURN(storage::Value v, ArgScalar(a, i));
  if (v.type() != storage::DataType::kString) {
    return Status::TypeError(StrFormat("%s: argument %zu must be a string",
                                       a.ins->FullName().c_str(), i));
  }
  return v.AsString();
}

}  // namespace stetho::engine
