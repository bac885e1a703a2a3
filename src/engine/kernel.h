#ifndef STETHO_ENGINE_KERNEL_H_
#define STETHO_ENGINE_KERNEL_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "analysis/signatures.h"
#include "common/clock.h"
#include "common/logging.h"
#include "common/status.h"
#include "engine/register.h"
#include "mal/program.h"
#include "storage/table.h"

namespace stetho::engine {

/// Bits of ResultColumn::order reserved for the argument index within one
/// sink instruction; a sink can therefore order at most 2^bits columns.
/// Shared with the analysis sink-order-key lint check, which flags sinks
/// whose argument count would overflow this key space.
inline constexpr int kResultOrderArgBits = 8;

/// The canonical ResultColumn::order key: statement order first, operand
/// order within the statement second.
inline constexpr int64_t ResultOrderKey(int pc, size_t arg_index) {
  return (static_cast<int64_t>(pc) << kResultOrderArgBits) |
         static_cast<int64_t>(arg_index);
}

/// Named result column accumulated by sql.resultSet / io.print kernels.
struct ResultColumn {
  std::string name;
  storage::ColumnPtr column;
  storage::Value scalar;  // used when the result is a scalar
  bool is_scalar = false;
  /// Plan position of the producing sink (ResultOrderKey(pc, arg index)).
  /// Sink instructions are independent, so the dataflow scheduler may run
  /// them in any order; TakeResults sorts on this key to keep output columns
  /// in statement order.
  int64_t order = 0;
};

/// Per-query state visible to kernels. Thread-safe where noted.
class ExecContext {
 public:
  ExecContext(storage::Catalog* catalog, Clock* clock)
      : catalog_(catalog), clock_(clock) {}

  storage::Catalog* catalog() const { return catalog_; }
  Clock* clock() const { return clock_; }

  /// Appends a result column (thread-safe; io.print may run concurrently
  /// with other sinks in exotic plans).
  void AddResult(ResultColumn column);
  std::vector<ResultColumn> TakeResults();

 private:
  storage::Catalog* catalog_;
  Clock* clock_;
  std::mutex mu_;
  std::vector<ResultColumn> results_;
};

/// Arguments handed to a kernel: resolved argument registers (constants are
/// the prepared plan's read-only registers, shared by concurrent queries)
/// and output registers.
struct KernelArgs {
  const mal::Instruction* ins = nullptr;
  std::vector<const RegisterValue*> args;
  std::vector<RegisterValue*> results;
  ExecContext* ctx = nullptr;
};

/// A native implementation of one MAL module.function.
using KernelFn = std::function<Status(KernelArgs&)>;

/// Registry mapping "module.function" to its native kernel and, for the
/// built-in kernels, the static facts the analysis layer and the optimizer
/// read (analysis::KernelSignature) — MAL's module system and the one list
/// of kernels. The default registry contains every built-in module (sql,
/// algebra, group, aggr, bat, mat, calc, batcalc, language, io, debug).
class ModuleRegistry {
 public:
  /// Registers a kernel with its signature; AlreadyExists if (module,
  /// function) is taken.
  Status Register(const std::string& module, const std::string& function,
                  KernelFn fn, analysis::KernelSignature signature);
  /// Registers an extension kernel without a signature: the analysis layer
  /// knows nothing of its shape and the optimizer treats it as effectful.
  Status Register(const std::string& module, const std::string& function,
                  KernelFn fn);

  /// Looks up a kernel; NotFound for unknown operations.
  Result<const KernelFn*> Lookup(const std::string& module,
                                 const std::string& function) const;

  /// The signature registered with a kernel; nullptr for unknown operations
  /// and kernels registered without one.
  const analysis::KernelSignature* Signature(const std::string& module,
                                             const std::string& function) const;

  /// What one search finds for module.function: whether it is registered,
  /// and its signature (nullptr when unregistered or registered without
  /// one). The abstract interpreter resolves each pc this way once.
  struct Resolution {
    bool registered = false;
    const analysis::KernelSignature* signature = nullptr;
  };
  Resolution Resolve(const std::string& module,
                     const std::string& function) const;

  /// Lists registered "module.function" names (sorted).
  std::vector<std::string> ListKernels() const;

  /// Shared registry pre-populated with all built-in kernels.
  static const ModuleRegistry* Default();

 private:
  struct Entry {
    KernelFn fn;
    std::optional<analysis::KernelSignature> signature;
  };

  Status Add(const std::string& module, const std::string& function,
             Entry entry);
  /// The entry of module.function; nullptr when unregistered.
  const Entry* Find(const std::string& module,
                    const std::string& function) const;

  /// module -> function -> entry: a lookup compares names in place, with
  /// no "module.function" key built per call.
  std::map<std::string, std::map<std::string, Entry>> kernels_;
};

/// Registration entry points for the built-in kernel families (each lives in
/// its own translation unit).
void RegisterCoreKernels(ModuleRegistry* registry);
void RegisterAlgebraKernels(ModuleRegistry* registry);
void RegisterGroupAggrKernels(ModuleRegistry* registry);

/// --- Kernel helper utilities (shared by kernel translation units) ---

/// Checks exact argument/result arity; InvalidArgument on mismatch.
Status ExpectArity(const KernelArgs& a, size_t num_args, size_t num_results);
/// Extracts a BAT argument; TypeError when arg i is a scalar.
Result<storage::ColumnPtr> ArgBat(const KernelArgs& a, size_t i);
/// Extracts a scalar argument; TypeError when arg i is a BAT.
Result<storage::Value> ArgScalar(const KernelArgs& a, size_t i);
/// Extracts a scalar argument coerced to int64.
Result<int64_t> ArgInt(const KernelArgs& a, size_t i);
/// Extracts a scalar argument coerced to double.
Result<double> ArgDouble(const KernelArgs& a, size_t i);
/// Extracts a string scalar argument.
Result<std::string> ArgString(const KernelArgs& a, size_t i);

}  // namespace stetho::engine

/// Kernel registration uses literal names at startup; a duplicate is a
/// programmer error, so it aborts rather than returning a Status.
#define STETHO_CHECK_REGISTER(expr) STETHO_CHECK((expr).ok())

#endif  // STETHO_ENGINE_KERNEL_H_
