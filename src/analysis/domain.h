#ifndef STETHO_ANALYSIS_DOMAIN_H_
#define STETHO_ANALYSIS_DOMAIN_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mal/program.h"
#include "storage/value.h"

namespace stetho::analysis {

/// Closed integer interval [lo, hi]; hi == kUnbounded means "no upper
/// bound". Used for BAT cardinalities: every transfer function keeps the
/// invariant that the runtime row count lies inside the interval, so two
/// disjoint intervals for the same value are a provable contradiction.
struct Interval {
  /// Sentinel upper bound (int64 max); never a real row count.
  static constexpr int64_t kUnbounded = 0x7fffffffffffffff;

  int64_t lo = 0;
  int64_t hi = kUnbounded;

  static Interval Exact(int64_t n) { return Interval{n, n}; }
  static Interval Range(int64_t lo, int64_t hi) { return Interval{lo, hi}; }
  static Interval Unknown() { return Interval{0, kUnbounded}; }

  bool is_exact() const { return lo == hi; }
  bool is_unknown() const { return lo == 0 && hi == kUnbounded; }
  bool Contains(int64_t n) const { return lo <= n && n <= hi; }
  bool Overlaps(const Interval& other) const {
    return lo <= other.hi && other.lo <= hi;
  }

  /// Union hull (lattice join).
  Interval Join(const Interval& other) const;
  /// Intersection (lattice meet); empty results are returned as an inverted
  /// interval — test with Overlaps() before calling when that matters.
  Interval Meet(const Interval& other) const;

  /// [a.lo + b.lo, a.hi + b.hi] with saturation at kUnbounded.
  static Interval SaturatingAdd(const Interval& a, const Interval& b);
  /// [0, a.hi * b.hi] with saturation (join fan-out bound).
  static Interval SaturatingMulUpper(const Interval& a, const Interval& b);

  /// "[3, 3]", "[0, 16]", "[0, *]".
  std::string ToString() const;

  bool operator==(const Interval& other) const = default;
};

/// Three-valued logic for per-register facts the analysis may or may not be
/// able to prove (NULL-freedom, ascending order).
enum class Tri {
  kUnknown = 0,
  kFalse,
  kTrue,
};

const char* TriName(Tri t);

/// Three-valued OR: kTrue wins, then kUnknown, then kFalse.
Tri TriOr(Tri a, Tri b);

/// One point in the abstract lattice tracked per SSA register: shape,
/// element type, cardinality, NULL-freedom, ascending order, and (for
/// scalars) a known constant value. The default-constructed value is bottom
/// ("never assigned"); Top() is the all-unknown element.
struct AbstractValue {
  /// False until a producing instruction has been evaluated.
  bool defined = false;
  /// Scalar register vs BAT register.
  Tri is_bat = Tri::kUnknown;
  /// Element type of a BAT / type of a scalar; kNull means unknown.
  storage::DataType elem = storage::DataType::kNull;
  /// BAT row count (scalars use [1, 1]).
  Interval card = Interval::Unknown();
  /// kFalse: provably NULL-free. kTrue: provably contains a NULL.
  Tri nullable = Tri::kUnknown;
  /// kTrue: provably ascending (candidate-list order). kFalse: provably not.
  Tri sorted = Tri::kUnknown;
  /// Known constant value (scalar registers only).
  std::optional<storage::Value> constant;

  static AbstractValue Top();
  /// Abstraction of an inline constant operand.
  static AbstractValue FromConstant(const storage::Value& v);
  /// Abstraction of a variable's declared MAL type (plus its optional
  /// cardinality annotation).
  static AbstractValue FromDeclared(const mal::Variable& var);

  bool elem_known() const { return elem != storage::DataType::kNull; }

  /// Lattice join (least upper bound): keeps only facts both sides agree on.
  AbstractValue Join(const AbstractValue& other) const;

  /// Non-empty meet: false means no runtime value satisfies both
  /// descriptions — the two CANNOT describe the same register. This is the
  /// pass-equivalence test: an optimizer pass that turns a sink operand's
  /// abstract value into something incompatible changed observable
  /// semantics.
  bool CompatibleWith(const AbstractValue& other) const;

  /// "bat[:lng] card=[0, 16] null=no sorted=yes" / "const 5:lng".
  std::string ToString() const;

  bool operator==(const AbstractValue& other) const = default;
};

/// Inputs handed to a kernel transfer function (see
/// KernelSignature::transfer): the instruction plus the abstract value of
/// every argument, in order. All pointers are borrowed.
struct TransferContext {
  const mal::Program* program = nullptr;
  const mal::Instruction* ins = nullptr;
  const std::vector<AbstractValue>* args = nullptr;
};

/// Refines the per-result abstract values (pre-seeded with the signature's
/// generic shape defaults) for one kernel. Each kernel registers its
/// transfer function with its signature, beside its implementation in
/// src/engine/kernels_*.cc, and must keep it SOUND: every fact it asserts
/// (element type, cardinality interval, NULL-freedom, ascending order) must
/// hold for the value the kernel actually produces. The checks built on top
/// (type-flow, cardinality-contradiction, the pass-equivalence differ)
/// treat a violated fact as a provable bug, so optimism in a transfer
/// function becomes false positives there.
using AbstractTransferFn = void (*)(const TransferContext& ctx,
                                    std::vector<AbstractValue>* results);

/// --- Helpers shared by transfer functions ---

/// Argument i's abstract value; Top when the instruction has fewer.
const AbstractValue& Arg(const TransferContext& ctx, size_t i);

/// Constant argument i coerced to int64, when statically known.
bool ConstInt(const TransferContext& ctx, size_t i, int64_t* out);

/// Meet of the cardinalities of all BAT arguments (batcalc zip semantics:
/// at run time they are all the same size, so the true count lies in every
/// argument's interval). Falls back to the join hull when the meet is empty
/// (contradictory plans — the cardinality-contradiction check reports it).
Interval ZipCard(const TransferContext& ctx);

/// Numeric promotion shared by calc./batcalc. arithmetic: double if the
/// operation is a division or any operand is a double; int64 once every
/// operand type is known non-double; unknown otherwise.
storage::DataType ArithElem(const TransferContext& ctx, bool is_div);

/// kFalse only when every operand is provably NULL-free; NULLs propagate
/// through arithmetic and comparisons.
Tri PropagatedNullable(const TransferContext& ctx);

}  // namespace stetho::analysis

#endif  // STETHO_ANALYSIS_DOMAIN_H_
