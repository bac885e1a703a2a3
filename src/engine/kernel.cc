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
  return Add(module, function,
             Kernel{.fn = std::move(fn), .signature = std::move(signature)});
}

Status ModuleRegistry::Register(const std::string& module,
                                const std::string& function, KernelFn fn) {
  return Add(module, function, Kernel{.fn = std::move(fn)});
}

Status ModuleRegistry::Add(const std::string& module,
                           const std::string& function, Kernel kernel) {
  kernel.name = module + "." + function;
  // The module's first kernel creates its family metrics; the rest share
  // them.
  obs::Registry* metrics = obs::Registry::Default();
  const std::string token = obs::MetricToken(module);
  kernel.calls = metrics->GetOrCreateCounter(
      "stetho_kernel_" + token + "_calls_total",
      "Kernel invocations in MAL module '" + module + "'");
  kernel.usec = metrics->GetOrCreateHistogram(
      "stetho_kernel_" + token + "_usec",
      "Kernel latency in microseconds for MAL module '" + module + "'",
      obs::Histogram::DefaultLatencyBounds());
  if (!kernels_[module].emplace(function, std::move(kernel)).second) {
    return Status::AlreadyExists("kernel '" + module + "." + function +
                                 "' already registered");
  }
  return Status::OK();
}

const Kernel* ModuleRegistry::Resolve(const std::string& module,
                                      const std::string& function) const {
  auto by_module = kernels_.find(module);
  if (by_module == kernels_.end()) return nullptr;
  auto it = by_module->second.find(function);
  return it == by_module->second.end() ? nullptr : &it->second;
}

std::vector<std::string> ModuleRegistry::ListKernels() const {
  std::vector<std::string> out;
  for (const auto& [module, functions] : kernels_) {
    for (const auto& [function, kernel] : functions) {
      out.push_back(kernel.name);
    }
  }
  // Sorted as "module.function" strings, whatever the module names.
  std::sort(out.begin(), out.end());
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

obs::Gauge* LiveBytesGauge() {
  static obs::Gauge* gauge = obs::Registry::Default()->GetOrCreateGauge(
      "stetho_engine_live_bytes",
      "Live column bytes currently held by executing queries "
      "(Column::MemoryBytes accounting)");
  return gauge;
}

obs::Gauge* PeakRssGauge() {
  static obs::Gauge* gauge = obs::Registry::Default()->GetOrCreateGauge(
      "stetho_engine_peak_rss_bytes",
      "Live-byte peak recorded by the last completed query execution");
  return gauge;
}

obs::Counter* SelfcheckViolations() {
  static obs::Counter* counter = obs::Registry::Default()->GetOrCreateCounter(
      "stetho_sched_selfcheck_violations_total",
      "Dataflow tasks dispatched before a producer completed");
  return counter;
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
