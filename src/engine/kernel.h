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
#include "obs/metrics.h"
#include "storage/table.h"

namespace stetho::engine {

/// Bits of ResultColumn::order reserved for the argument index within one
/// sink instruction; a sink can therefore order at most 2^bits columns.
/// Shared with the analysis sink-order-key lint check, which flags sinks
/// whose argument count would overflow this key space. 8 is chosen, not
/// measured: sql.resultSet emits one column per instruction and only
/// io.print one per argument, so 256 columns per sink is far above any
/// plan the compiler emits, while the pc keeps 55 bits of the int64 key.
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

/// The one record of a registered kernel, built when it registers and read
/// by every consumer, so no query looks up or builds anything about a
/// kernel again. Records live, at stable addresses, as long as the registry.
/// Members carry `= {}` so registration's designated initializers may omit
/// them (-Wmissing-field-initializers).
struct Kernel {
  KernelFn fn;
  /// The static facts the analysis layer and the optimizer read; empty for
  /// an extension kernel registered without one.
  std::optional<analysis::KernelSignature> signature = {};
  std::string name = {};  ///< "module.function": the kernel span's name
  /// The module's family call counter and latency histogram, created when
  /// its first kernel registers; the interpreter feeds them while
  /// obs::Enabled().
  obs::Counter* calls = nullptr;
  obs::Histogram* usec = nullptr;
};

/// Registry mapping "module.function" to its Kernel record — MAL's module
/// system and the one list of kernels. The default registry contains every
/// built-in module (sql, algebra, group, aggr, bat, mat, calc, batcalc,
/// language, io, debug).
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

  /// The one search for module.function: its record, or nullptr when the
  /// operation is not registered.
  const Kernel* Resolve(const std::string& module,
                        const std::string& function) const;

  /// Lists registered "module.function" names (sorted).
  std::vector<std::string> ListKernels() const;

  /// Shared registry pre-populated with all built-in kernels.
  static const ModuleRegistry* Default();

 private:
  Status Add(const std::string& module, const std::string& function,
             Kernel kernel);

  /// module -> function -> record: a lookup compares names in place, with
  /// no "module.function" key built per call.
  std::map<std::string, std::map<std::string, Kernel>> kernels_;
};

/// --- The engine's other process-wide metrics, created on first use ---

/// Process-wide mirror of every query's live-byte accountant
/// (stetho_engine_live_bytes): each allocation or release delta also lands
/// here, one relaxed add, always on, so the gauge shows the engine's current
/// column memory across all concurrent queries and drains back to zero when
/// every query releases its registers. Memory admission reads it.
obs::Gauge* LiveBytesGauge();
/// The accountant's peak for the last finished query
/// (stetho_engine_peak_rss_bytes), which footprint-conformance checks.
obs::Gauge* PeakRssGauge();
/// Dataflow tasks dispatched before a producer completed.
obs::Counter* SelfcheckViolations();

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
