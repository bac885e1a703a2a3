#ifndef STETHO_ANALYSIS_SIGNATURES_H_
#define STETHO_ANALYSIS_SIGNATURES_H_

#include <string>
#include <utility>
#include <vector>

#include "analysis/domain.h"
#include "storage/value.h"

namespace stetho::analysis {

/// Static shape of one MAL register (engine::RegisterValue is either a
/// scalar or a BAT; kAny admits both).
enum class ValueKind {
  kAny = 0,
  kScalar,
  kBat,
};

const char* ValueKindName(ValueKind kind);

/// KernelSignature::arg_elem entry for a slot without an element constraint.
inline constexpr storage::DataType kAnyElem = storage::DataType::kNull;

/// KernelSignature::cost_factor classes (EXPERIMENTS § PIPE gives the
/// calibration): views and metadata, memory-bound gathers, and partial
/// aggregates that touch mostly group ids. Per-value work is the default 1.
inline constexpr double kViewCost = 0.01;
inline constexpr double kGatherCost = 0.05;
inline constexpr double kAggregateCost = 0.2;

/// Everything the static layers know about one built-in kernel, registered
/// with its implementation (engine::ModuleRegistry::Register) in
/// src/engine/kernels_*.cc. The shape mirrors the ExpectArity / ArgBat /
/// ArgScalar contract the implementation enforces at run time, so the lint
/// surfaces shape bugs before execution. The vectors carry `= {}` so a
/// registration's designated initializer may omit them without tripping
/// -Wmissing-field-initializers.
struct KernelSignature {
  /// Kind constraint per positional argument (size == arity) for
  /// fixed-arity kernels. Empty for variadic kernels.
  std::vector<ValueKind> args = {};
  /// Kind constraint per result register.
  std::vector<ValueKind> results = {};
  /// Variadic kernels (io.print, mat.pack): minimum argument count, and the
  /// kind every argument must satisfy. variadic == false means arity is
  /// exactly args.size().
  bool variadic = false;
  int min_args = 0;
  ValueKind variadic_kind = ValueKind::kAny;
  /// At least one argument must be a BAT (batcalc broadcast semantics).
  bool needs_bat_arg = false;
  /// Produces engine::ResultColumn entries keyed by (pc << 8) | arg-index.
  bool is_sink = false;
  /// Only observable effect is the result value, so the optimizer may
  /// eliminate, deduplicate and reorder the call. Catalog readers
  /// (sql.bind/tid/mvc) qualify because tables are immutable.
  bool side_effect_free = true;

  /// --- Abstract-interpretation metadata (analysis/absint.h) ---

  /// Required element type per argument slot; kAnyElem = unconstrained.
  /// Only slots without a runtime coercion are constrained (strings,
  /// booleans), so a violation is a guaranteed kernel error, not a style
  /// issue.
  std::vector<storage::DataType> arg_elem = {};
  /// Argument index pairs that must hold equal-cardinality BATs at run time
  /// (batcalc zip semantics, selectmask, grouped aggregates). Disjoint
  /// abstract cardinalities are a provable contradiction.
  std::vector<std::pair<int, int>> equal_card_args = {};
  /// Argument slots that must carry a candidate list: an ascending,
  /// NULL-free bat[:oid]. Feeding a value-domain BAT here silently
  /// misinterprets values as row ids.
  std::vector<int> candidate_args = {};
  /// Kernel-specific transfer function refining the generic result shapes;
  /// nullptr falls back to the shape defaults alone.
  AbstractTransferFn transfer = nullptr;

  /// --- Cost models ---

  /// Output column capacity (analysis/liveness.h): true when the kernel
  /// Reserves the exact row count up front or builds its column with
  /// Slice / MakeOidRange; false models power-of-two append growth.
  bool exact_capacity = false;
  /// Progress-model work per modeled byte (analysis/progress.h), relative
  /// to per-value compute.
  double cost_factor = 1.0;
};

/// Heuristic: the operation name suggests it emits result columns
/// (print/result/output/export). Used to flag sinks that carry no
/// signature — such kernels have no defined ResultColumn::order key, so
/// their output order under the dataflow scheduler is nondeterministic.
bool LooksLikeResultSink(const std::string& module,
                         const std::string& function);

}  // namespace stetho::analysis

#endif  // STETHO_ANALYSIS_SIGNATURES_H_
