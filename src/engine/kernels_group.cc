#include <cstring>
#include <limits>
#include <type_traits>
#include <unordered_map>

#include "common/string_util.h"
#include "engine/kernel.h"

namespace stetho::engine {
namespace {

using analysis::AbstractTransferFn;
using analysis::AbstractValue;
using analysis::Interval;
using analysis::TransferContext;
using analysis::Tri;
using enum analysis::ValueKind;
using storage::Column;
using storage::ColumnPtr;
using storage::DataType;
using storage::Value;

/// Serializes the grouping key of row i (optionally combined with a prior
/// group id) into an exact byte string. NULL gets a distinct tag so all
/// NULLs land in one group.
void AppendKeyBytes(const ColumnPtr& col, size_t i, std::string* key) {
  if (col->IsNull(i)) {
    key->push_back('\0');
    key->push_back('N');
    return;
  }
  switch (col->type()) {
    case DataType::kInt64:
    case DataType::kOid:
    case DataType::kBool: {
      key->push_back('\1');
      int64_t v = col->IntAt(i);
      key->append(reinterpret_cast<const char*>(&v), sizeof(v));
      break;
    }
    case DataType::kDouble: {
      key->push_back('\2');
      double v = col->DoubleAt(i);
      key->append(reinterpret_cast<const char*>(&v), sizeof(v));
      break;
    }
    case DataType::kString: {
      key->push_back('\3');
      key->append(col->StringAt(i));
      break;
    }
    default:
      key->push_back('?');
  }
}

/// Shared implementation for group.group / group.subgroup. `prior` may be
/// null (initial grouping).
Status GroupImpl(const ColumnPtr& col, const ColumnPtr& prior,
                 KernelArgs& a) {
  if (prior != nullptr && prior->size() != col->size()) {
    return Status::InvalidArgument(
        "group.subgroup: prior groups not aligned with column");
  }
  ColumnPtr groups = Column::Make(DataType::kOid);
  ColumnPtr extents = Column::Make(DataType::kOid);
  ColumnPtr histo = Column::Make(DataType::kInt64);
  groups->Reserve(col->size());

  std::unordered_map<std::string, uint64_t> ids;
  std::vector<int64_t> counts;
  std::string key;
  for (size_t i = 0; i < col->size(); ++i) {
    key.clear();
    if (prior != nullptr) {
      uint64_t g = prior->OidAt(i);
      key.append(reinterpret_cast<const char*>(&g), sizeof(g));
    }
    AppendKeyBytes(col, i, &key);
    auto [it, inserted] = ids.emplace(key, ids.size());
    if (inserted) {
      extents->AppendOid(i);
      counts.push_back(0);
    }
    groups->AppendOid(it->second);
    ++counts[it->second];
  }
  for (int64_t c : counts) histo->AppendInt(c);

  *a.results[0] = RegisterValue::Bat(std::move(groups));
  *a.results[1] = RegisterValue::Bat(std::move(extents));
  *a.results[2] = RegisterValue::Bat(std::move(histo));
  return Status::OK();
}

/// group.group(col) (:bat[:oid], :bat[:oid], :bat[:lng]) — group id per row,
/// representative row per group, group sizes.
Status GroupGroup(KernelArgs& a) {
  STETHO_RETURN_IF_ERROR(ExpectArity(a, 1, 3));
  STETHO_ASSIGN_OR_RETURN(ColumnPtr col, ArgBat(a, 0));
  return GroupImpl(col, nullptr, a);
}

/// group.subgroup(col, groups) — refines an existing grouping by `col`.
Status GroupSubgroup(KernelArgs& a) {
  STETHO_RETURN_IF_ERROR(ExpectArity(a, 2, 3));
  STETHO_ASSIGN_OR_RETURN(ColumnPtr col, ArgBat(a, 0));
  STETHO_ASSIGN_OR_RETURN(ColumnPtr prior, ArgBat(a, 1));
  return GroupImpl(col, prior, a);
}

/// group.group / group.subgroup -> (per-row group ids, extents, histogram).
void TransferGroup(const TransferContext& ctx, std::vector<AbstractValue>* r) {
  if (r->size() != 3) return;
  const AbstractValue& col = Arg(ctx, 0);
  AbstractValue& groups = (*r)[0];
  groups.elem = DataType::kOid;
  groups.nullable = Tri::kFalse;
  if (col.defined && col.is_bat == Tri::kTrue) groups.card = col.card;
  AbstractValue& extents = (*r)[1];
  extents.elem = DataType::kOid;
  extents.nullable = Tri::kFalse;
  extents.card = Interval{col.card.lo > 0 ? 1 : 0, col.card.hi};
  // First-occurrence positions are discovered scanning ascending.
  extents.sorted = Tri::kTrue;
  AbstractValue& histogram = (*r)[2];
  histogram.elem = DataType::kInt64;
  histogram.nullable = Tri::kFalse;
  histogram.card = extents.card;
}

enum class AggKind { kSum, kMin, kMax, kAvg, kCount };

bool IsNumericColumn(DataType type) {
  return type == DataType::kInt64 || type == DataType::kOid ||
         type == DataType::kBool || type == DataType::kDouble;
}

/// The accumulator a sum/min/max/avg starts from.
template <typename T>
T FoldStart(AggKind kind) {
  if (kind == AggKind::kMin) {
    return std::numeric_limits<T>::has_infinity
               ? std::numeric_limits<T>::infinity()
               : std::numeric_limits<T>::max();
  }
  if (kind == AggKind::kMax) {
    return std::numeric_limits<T>::has_infinity
               ? -std::numeric_limits<T>::infinity()
               : std::numeric_limits<T>::lowest();
  }
  return T{0};
}

/// The accumulator of an aggregate whose domain is T. Integer columns
/// (:lng, :oid, :bit) fold in __int128: no run of fewer than 2^64 int64_t
/// rows can wrap it, so a sum is exact whatever the row order and only its
/// final value is checked against int64_t.
template <typename T>
using Acc = std::conditional_t<std::is_integral_v<T>, __int128, T>;

/// Folds `v` into `*acc`.
template <typename T>
void Fold(AggKind kind, T v, Acc<T>* acc) {
  switch (kind) {
    case AggKind::kSum:
    case AggKind::kAvg:
      *acc += v;
      break;
    case AggKind::kMin:
      *acc = v < *acc ? v : *acc;
      break;
    case AggKind::kMax:
      *acc = v > *acc ? v : *acc;
      break;
    default:
      break;
  }
}

/// col[i] in the aggregation domain T (int64_t for integer columns).
template <typename T>
T NumAt(const Column& col, size_t i) {
  if constexpr (std::is_integral_v<T>) {
    return col.IntAt(i);
  } else {
    return col.DoubleAt(i);
  }
}

/// The aggregate's value over `n` folded rows (n > 0): avg divides the
/// exact sum and never fails; an integer sum outside int64_t is an error;
/// everything else keeps the column's domain.
template <typename T>
Result<Value> AggResult(AggKind kind, Acc<T> acc, int64_t n,
                        const KernelArgs& a) {
  if (kind == AggKind::kAvg) {
    return Value::Double(static_cast<double>(acc) / static_cast<double>(n));
  }
  if constexpr (std::is_integral_v<T>) {
    if (acc < std::numeric_limits<int64_t>::min() ||
        acc > std::numeric_limits<int64_t>::max()) {
      return Status::OutOfRange(a.ins->FullName() + ": integer overflow");
    }
    return Value::Int(static_cast<int64_t>(acc));
  } else {
    return Value::Double(acc);
  }
}

/// Scalar sum/min/max/avg over a column whose aggregation domain is T.
/// A non-numeric column is an error at its first non-NULL row.
template <typename T>
Status ScalarAggTyped(AggKind kind, const Column& col, KernelArgs& a) {
  const bool numeric = IsNumericColumn(col.type());
  Acc<T> acc = FoldStart<T>(kind);
  int64_t n = 0;
  for (size_t i = 0; i < col.size(); ++i) {
    if (col.IsNull(i)) continue;
    if (!numeric) return Status::TypeError("aggregate over non-numeric column");
    Fold(kind, NumAt<T>(col, i), &acc);
    ++n;
  }
  if (n == 0) {
    *a.results[0] = RegisterValue::Scalar(Value::Null());
    return Status::OK();
  }
  STETHO_ASSIGN_OR_RETURN(Value v, AggResult<T>(kind, acc, n, a));
  *a.results[0] = RegisterValue::Scalar(std::move(v));
  return Status::OK();
}

/// Scalar aggregates: aggr.sum/min/max/avg/count(col).
Status ScalarAgg(AggKind kind, KernelArgs& a) {
  STETHO_RETURN_IF_ERROR(ExpectArity(a, 1, 1));
  STETHO_ASSIGN_OR_RETURN(ColumnPtr col, ArgBat(a, 0));

  if (kind == AggKind::kCount) {
    int64_t n = 0;
    for (size_t i = 0; i < col->size(); ++i) {
      if (!col->IsNull(i)) ++n;
    }
    *a.results[0] = RegisterValue::Scalar(Value::Int(n));
    return Status::OK();
  }
  return col->type() == DataType::kDouble
             ? ScalarAggTyped<double>(kind, *col, a)
             : ScalarAggTyped<int64_t>(kind, *col, a);
}

void TransferAggrCount(const TransferContext& ctx,
                       std::vector<AbstractValue>* r) {
  if (r->size() != 1) return;
  AbstractValue& out = (*r)[0];
  out.elem = DataType::kInt64;
  out.nullable = Tri::kFalse;
  const AbstractValue& col = Arg(ctx, 0);
  // count skips NULLs, so the cardinality only pins the result for a
  // provably NULL-free input.
  if (col.defined && col.card.is_exact() && col.nullable == Tri::kFalse) {
    out.constant = Value::Int(col.card.lo);
  }
}

void TransferAggrNumeric(const TransferContext& ctx,
                         std::vector<AbstractValue>* r) {
  if (r->size() != 1) return;
  AbstractValue& out = (*r)[0];
  const AbstractValue& col = Arg(ctx, 0);
  if (col.elem_known()) {
    out.elem = col.elem == DataType::kDouble ? DataType::kDouble
                                             : DataType::kInt64;
  }
}

void TransferAggrAvg(const TransferContext& /*ctx*/,
                     std::vector<AbstractValue>* r) {
  if (r->size() != 1) return;
  (*r)[0].elem = DataType::kDouble;
}

/// Grouped aggr.subX over a column whose aggregation domain is T. Rows are
/// checked in order: group id first, then NULL, then the column type.
template <typename T>
Status GroupedAggTyped(AggKind kind, const Column& col, const Column& groups,
                       size_t ngroups, KernelArgs& a) {
  const bool numeric = IsNumericColumn(col.type());
  std::vector<Acc<T>> acc(ngroups, FoldStart<T>(kind));
  std::vector<int64_t> counts(ngroups, 0);
  for (size_t i = 0; i < col.size(); ++i) {
    uint64_t g = groups.OidAt(i);
    if (g >= ngroups) {
      return Status::OutOfRange(a.ins->FullName() + ": group id out of range");
    }
    if (col.IsNull(i)) continue;
    if (!numeric) return Status::TypeError("aggregate over non-numeric column");
    Fold(kind, NumAt<T>(col, i), &acc[g]);
    ++counts[g];
  }

  if (kind == AggKind::kCount) {
    ColumnPtr out = Column::Make(DataType::kInt64);
    out->Reserve(ngroups);
    for (size_t g = 0; g < ngroups; ++g) out->AppendInt(counts[g]);
    *a.results[0] = RegisterValue::Bat(std::move(out));
    return Status::OK();
  }

  const bool int_result = std::is_integral_v<T> && kind != AggKind::kAvg;
  ColumnPtr out =
      Column::Make(int_result ? DataType::kInt64 : DataType::kDouble);
  out->Reserve(ngroups);
  for (size_t g = 0; g < ngroups; ++g) {
    if (counts[g] == 0) {
      out->AppendNull();
      continue;
    }
    STETHO_ASSIGN_OR_RETURN(const Value v,
                            AggResult<T>(kind, acc[g], counts[g], a));
    if (int_result) {
      out->AppendInt(v.AsInt());
    } else {
      out->AppendDouble(v.AsDouble());
    }
  }
  *a.results[0] = RegisterValue::Bat(std::move(out));
  return Status::OK();
}

/// Grouped aggregates: aggr.subX(col, groups, extents) :bat — one value per
/// group, aligned with `extents`.
Status GroupedAgg(AggKind kind, KernelArgs& a) {
  STETHO_RETURN_IF_ERROR(ExpectArity(a, 3, 1));
  STETHO_ASSIGN_OR_RETURN(ColumnPtr col, ArgBat(a, 0));
  STETHO_ASSIGN_OR_RETURN(ColumnPtr groups, ArgBat(a, 1));
  STETHO_ASSIGN_OR_RETURN(ColumnPtr extents, ArgBat(a, 2));
  if (groups->size() != col->size()) {
    return Status::InvalidArgument(a.ins->FullName() +
                                   ": groups not aligned with column");
  }
  const size_t ngroups = extents->size();
  return col->type() == DataType::kDouble
             ? GroupedAggTyped<double>(kind, *col, *groups, ngroups, a)
             : GroupedAggTyped<int64_t>(kind, *col, *groups, ngroups, a);
}

/// Grouped aggregates: one output row per group (extents, arg 2).
void TransferSubaggr(DataType elem, const TransferContext& ctx,
                     std::vector<AbstractValue>* r) {
  if (r->size() != 1) return;
  AbstractValue& out = (*r)[0];
  const AbstractValue& col = Arg(ctx, 0);
  const AbstractValue& extents = Arg(ctx, 2);
  if (elem != DataType::kNull) {
    out.elem = elem;
  } else if (col.elem_known()) {
    out.elem = col.elem == DataType::kDouble ? DataType::kDouble
                                             : DataType::kInt64;
  }
  if (extents.defined && extents.is_bat == Tri::kTrue) {
    out.card = extents.card;
  }
}

void TransferSubNumeric(const TransferContext& ctx,
                        std::vector<AbstractValue>* r) {
  TransferSubaggr(DataType::kNull, ctx, r);
}
void TransferSubAvg(const TransferContext& ctx,
                    std::vector<AbstractValue>* r) {
  TransferSubaggr(DataType::kDouble, ctx, r);
}
void TransferSubCount(const TransferContext& ctx,
                      std::vector<AbstractValue>* r) {
  TransferSubaggr(DataType::kInt64, ctx, r);
  if (r->size() == 1) (*r)[0].nullable = Tri::kFalse;
}

}  // namespace

void RegisterGroupAggrKernels(ModuleRegistry* r) {
  STETHO_CHECK_REGISTER(r->Register(
      "group", "group", GroupGroup,
      {.args = {kBat},
       .results = {kBat, kBat, kBat},
       .transfer = TransferGroup,
       .exact_capacity = true}));
  STETHO_CHECK_REGISTER(r->Register(
      "group", "subgroup", GroupSubgroup,
      {.args = {kBat, kBat},
       .results = {kBat, kBat, kBat},
       .equal_card_args = {{0, 1}},
       .transfer = TransferGroup,
       .exact_capacity = true}));

  const struct {
    const char* scalar_name;
    const char* grouped_name;
    AggKind kind;
    AbstractTransferFn scalar_transfer;
    AbstractTransferFn grouped_transfer;
  } kAggs[] = {
      {"sum", "subsum", AggKind::kSum, TransferAggrNumeric, TransferSubNumeric},
      {"min", "submin", AggKind::kMin, TransferAggrNumeric, TransferSubNumeric},
      {"max", "submax", AggKind::kMax, TransferAggrNumeric, TransferSubNumeric},
      {"avg", "subavg", AggKind::kAvg, TransferAggrAvg, TransferSubAvg},
      {"count", "subcount", AggKind::kCount, TransferAggrCount,
       TransferSubCount},
  };
  for (const auto& e : kAggs) {
    AggKind kind = e.kind;
    STETHO_CHECK_REGISTER(r->Register(
        "aggr", e.scalar_name,
        [kind](KernelArgs& a) { return ScalarAgg(kind, a); },
        {.args = {kBat},
         .results = {kScalar},
         .transfer = e.scalar_transfer,
         .exact_capacity = true,
         .cost_factor = analysis::kAggregateCost}));
    STETHO_CHECK_REGISTER(r->Register(
        "aggr", e.grouped_name,
        [kind](KernelArgs& a) { return GroupedAgg(kind, a); },
        {.args = {kBat, kBat, kBat},
         .results = {kBat},
         .equal_card_args = {{0, 1}},
         .transfer = e.grouped_transfer,
         .exact_capacity = true,
         .cost_factor = analysis::kAggregateCost}));
  }
}

}  // namespace stetho::engine
