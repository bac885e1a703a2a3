#include <algorithm>
#include <cstring>
#include <limits>
#include <numeric>
#include <unordered_map>

#include "common/string_util.h"
#include "engine/kernel.h"

namespace stetho::engine {
namespace {

using analysis::AbstractValue;
using analysis::Interval;
using analysis::KernelRole;
using analysis::TransferContext;
using analysis::Tri;
using enum analysis::ValueKind;
using storage::Column;
using storage::ColumnPtr;
using storage::DataType;
using storage::Value;

/// Comparison operators accepted by algebra.thetaselect.
enum class Theta { kEq, kNe, kLt, kLe, kGt, kGe };

Result<Theta> ParseTheta(const std::string& op) {
  if (op == "==") return Theta::kEq;
  if (op == "!=") return Theta::kNe;
  if (op == "<") return Theta::kLt;
  if (op == "<=") return Theta::kLe;
  if (op == ">") return Theta::kGt;
  if (op == ">=") return Theta::kGe;
  return Status::InvalidArgument("unknown theta operator '" + op + "'");
}

bool ThetaHolds(Theta op, int cmp) {
  switch (op) {
    case Theta::kEq:
      return cmp == 0;
    case Theta::kNe:
      return cmp != 0;
    case Theta::kLt:
      return cmp < 0;
    case Theta::kLe:
      return cmp <= 0;
    case Theta::kGt:
      return cmp > 0;
    case Theta::kGe:
      return cmp >= 0;
  }
  return false;
}

/// SQL LIKE pattern match with '%' (any sequence) and '_' (any single char).
bool LikeMatch(std::string_view text, std::string_view pattern) {
  // Iterative two-pointer algorithm with backtracking on the last '%'.
  size_t t = 0;
  size_t p = 0;
  size_t star_p = std::string_view::npos;
  size_t star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() && (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string_view::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

/// True when `v` can drive the int64 fast path (kOid scalars share the
/// int64 representation).
bool IsIntScalar(const Value& v) {
  return v.type() == DataType::kInt64 || v.type() == DataType::kOid;
}

/// True when `v` coerces losslessly into the double fast path.
bool IsNumScalar(const Value& v) {
  return IsIntScalar(v) || v.type() == DataType::kDouble;
}

double NumScalarValue(const Value& v) {
  return v.type() == DataType::kDouble ? v.AsDouble()
                                       : static_cast<double>(v.AsInt());
}

/// Typed range scan over the candidate list: branch on the column type once,
/// then run a tight loop over the raw arrays. `lo`/`hi` are already widened
/// to sentinels for NULL (unbounded) bounds.
template <typename T>
Status SelectScanTyped(const Column& col, const Column& cand, const T* vals,
                       T lo, T hi, Column* out) {
  const std::vector<int64_t>& cand_oids = cand.ints();
  const size_t limit = col.size();
  const bool check_nulls = col.has_nulls();
  for (size_t k = 0; k < cand_oids.size(); ++k) {
    uint64_t pos = static_cast<uint64_t>(cand_oids[k]);
    if (pos >= limit) {
      return Status::OutOfRange("algebra.select: candidate oid out of range");
    }
    if (check_nulls && col.IsNull(pos)) continue;
    T v = vals[pos];
    if (v >= lo && v <= hi) out->AppendOid(pos);
  }
  return Status::OK();
}

/// algebra.select(col, cand, low, high) :bat[:oid]
/// Positions (from the candidate list) whose value lies in [low, high].
/// A NULL bound means unbounded on that side; NULL values never qualify.
Status AlgebraSelect(KernelArgs& a) {
  STETHO_RETURN_IF_ERROR(ExpectArity(a, 4, 1));
  STETHO_ASSIGN_OR_RETURN(ColumnPtr col, ArgBat(a, 0));
  STETHO_ASSIGN_OR_RETURN(ColumnPtr cand, ArgBat(a, 1));
  STETHO_ASSIGN_OR_RETURN(Value low, ArgScalar(a, 2));
  STETHO_ASSIGN_OR_RETURN(Value high, ArgScalar(a, 3));

  ColumnPtr out = Column::Make(DataType::kOid);
  const DataType ct = col->type();
  if ((ct == DataType::kInt64 || ct == DataType::kOid) &&
      (low.is_null() || IsIntScalar(low)) &&
      (high.is_null() || IsIntScalar(high))) {
    int64_t lo = low.is_null() ? std::numeric_limits<int64_t>::min() : low.AsInt();
    int64_t hi = high.is_null() ? std::numeric_limits<int64_t>::max() : high.AsInt();
    STETHO_RETURN_IF_ERROR(
        SelectScanTyped<int64_t>(*col, *cand, col->ints().data(), lo, hi, out.get()));
  } else if (ct == DataType::kDouble && (low.is_null() || IsNumScalar(low)) &&
             (high.is_null() || IsNumScalar(high))) {
    double lo = low.is_null() ? -std::numeric_limits<double>::infinity()
                              : NumScalarValue(low);
    double hi = high.is_null() ? std::numeric_limits<double>::infinity()
                               : NumScalarValue(high);
    STETHO_RETURN_IF_ERROR(
        SelectScanTyped<double>(*col, *cand, col->doubles().data(), lo, hi, out.get()));
  } else {
    // Generic boxed fallback: string columns, exotic bound types.
    for (size_t k = 0; k < cand->size(); ++k) {
      uint64_t pos = cand->OidAt(k);
      if (pos >= col->size()) {
        return Status::OutOfRange("algebra.select: candidate oid out of range");
      }
      if (col->IsNull(pos)) continue;
      Value v = col->GetValue(pos);
      if (!low.is_null() && v.Compare(low) < 0) continue;
      if (!high.is_null() && v.Compare(high) > 0) continue;
      out->AppendOid(pos);
    }
  }
  *a.results[0] = RegisterValue::Bat(std::move(out));
  return Status::OK();
}

/// select / thetaselect / likeselect: a subsequence of the candidate list
/// (arg 1) restricted to positions of the value column (arg 0).
void TransferSelect(const TransferContext& ctx,
                    std::vector<AbstractValue>* r) {
  if (r->size() != 1) return;
  AbstractValue& out = (*r)[0];
  out.elem = DataType::kOid;
  out.nullable = Tri::kFalse;
  const AbstractValue& col = Arg(ctx, 0);
  const AbstractValue& cand = Arg(ctx, 1);
  out.card = Interval{0, std::min(cand.card.hi, col.card.hi)};
  // A subsequence preserves the candidate list's order.
  out.sorted = cand.sorted;
}

/// Typed theta scan: the comparison op is loop-invariant, so the per-row
/// switch predicts perfectly; the win is never boxing values.
template <typename T>
Status ThetaScanTyped(const Column& col, const Column& cand, const T* vals,
                      Theta op, T pivot, Column* out) {
  const std::vector<int64_t>& cand_oids = cand.ints();
  const size_t limit = col.size();
  const bool check_nulls = col.has_nulls();
  for (size_t k = 0; k < cand_oids.size(); ++k) {
    uint64_t pos = static_cast<uint64_t>(cand_oids[k]);
    if (pos >= limit) {
      return Status::OutOfRange("algebra.thetaselect: candidate oid out of range");
    }
    if (check_nulls && col.IsNull(pos)) continue;
    T v = vals[pos];
    int cmp = v < pivot ? -1 : (v > pivot ? 1 : 0);
    if (ThetaHolds(op, cmp)) out->AppendOid(pos);
  }
  return Status::OK();
}

/// algebra.thetaselect(col, cand, value, op) :bat[:oid]
Status AlgebraThetaSelect(KernelArgs& a) {
  STETHO_RETURN_IF_ERROR(ExpectArity(a, 4, 1));
  STETHO_ASSIGN_OR_RETURN(ColumnPtr col, ArgBat(a, 0));
  STETHO_ASSIGN_OR_RETURN(ColumnPtr cand, ArgBat(a, 1));
  STETHO_ASSIGN_OR_RETURN(Value pivot, ArgScalar(a, 2));
  STETHO_ASSIGN_OR_RETURN(std::string op_name, ArgString(a, 3));
  STETHO_ASSIGN_OR_RETURN(Theta op, ParseTheta(op_name));

  ColumnPtr out = Column::Make(DataType::kOid);
  const DataType ct = col->type();
  if ((ct == DataType::kInt64 || ct == DataType::kOid) && IsIntScalar(pivot)) {
    STETHO_RETURN_IF_ERROR(ThetaScanTyped<int64_t>(
        *col, *cand, col->ints().data(), op, pivot.AsInt(), out.get()));
  } else if (ct == DataType::kDouble && IsNumScalar(pivot)) {
    STETHO_RETURN_IF_ERROR(ThetaScanTyped<double>(
        *col, *cand, col->doubles().data(), op, NumScalarValue(pivot), out.get()));
  } else {
    for (size_t k = 0; k < cand->size(); ++k) {
      uint64_t pos = cand->OidAt(k);
      if (pos >= col->size()) {
        return Status::OutOfRange("algebra.thetaselect: candidate oid out of range");
      }
      if (col->IsNull(pos)) continue;
      if (ThetaHolds(op, col->GetValue(pos).Compare(pivot))) {
        out->AppendOid(pos);
      }
    }
  }
  *a.results[0] = RegisterValue::Bat(std::move(out));
  return Status::OK();
}

/// algebra.likeselect(col, cand, pattern) :bat[:oid] — SQL LIKE filter.
Status AlgebraLikeSelect(KernelArgs& a) {
  STETHO_RETURN_IF_ERROR(ExpectArity(a, 3, 1));
  STETHO_ASSIGN_OR_RETURN(ColumnPtr col, ArgBat(a, 0));
  STETHO_ASSIGN_OR_RETURN(ColumnPtr cand, ArgBat(a, 1));
  STETHO_ASSIGN_OR_RETURN(std::string pattern, ArgString(a, 2));
  if (col->type() != DataType::kString) {
    return Status::TypeError("algebra.likeselect: column must be :str");
  }
  ColumnPtr out = Column::Make(DataType::kOid);
  for (size_t k = 0; k < cand->size(); ++k) {
    uint64_t pos = cand->OidAt(k);
    if (pos >= col->size()) {
      return Status::OutOfRange("algebra.likeselect: candidate oid out of range");
    }
    if (col->IsNull(pos)) continue;
    if (LikeMatch(col->StringAt(pos), pattern)) out->AppendOid(pos);
  }
  *a.results[0] = RegisterValue::Bat(std::move(out));
  return Status::OK();
}

/// algebra.selectmask(cand, mask) :bat[:oid] — keeps the candidates whose
/// aligned :bit mask entry is true (used for complex WHERE residuals).
Status AlgebraSelectMask(KernelArgs& a) {
  STETHO_RETURN_IF_ERROR(ExpectArity(a, 2, 1));
  STETHO_ASSIGN_OR_RETURN(ColumnPtr cand, ArgBat(a, 0));
  STETHO_ASSIGN_OR_RETURN(ColumnPtr mask, ArgBat(a, 1));
  if (mask->type() != DataType::kBool) {
    return Status::TypeError("algebra.selectmask: mask must be :bit");
  }
  if (mask->size() != cand->size()) {
    return Status::InvalidArgument(
        "algebra.selectmask: mask not aligned with candidates");
  }
  ColumnPtr out = Column::Make(DataType::kOid);
  for (size_t k = 0; k < cand->size(); ++k) {
    if (!mask->IsNull(k) && mask->BoolAt(k)) out->AppendOid(cand->OidAt(k));
  }
  *a.results[0] = RegisterValue::Bat(std::move(out));
  return Status::OK();
}

void TransferSelectmask(const TransferContext& ctx,
                        std::vector<AbstractValue>* r) {
  if (r->size() != 1) return;
  AbstractValue& out = (*r)[0];
  out.elem = DataType::kOid;
  out.nullable = Tri::kFalse;
  const AbstractValue& cand = Arg(ctx, 0);
  const AbstractValue& mask = Arg(ctx, 1);
  out.card = Interval{0, std::min(cand.card.hi, mask.card.hi)};
  out.sorted = cand.sorted;
}

/// algebra.projection(cand, col) :bat — col values at the candidate oids.
Status AlgebraProjection(KernelArgs& a) {
  STETHO_RETURN_IF_ERROR(ExpectArity(a, 2, 1));
  STETHO_ASSIGN_OR_RETURN(ColumnPtr cand, ArgBat(a, 0));
  STETHO_ASSIGN_OR_RETURN(ColumnPtr col, ArgBat(a, 1));
  // Candidate oids share the int64 backing array: hand it to the typed
  // gather directly instead of copying it into a positions vector.
  STETHO_ASSIGN_OR_RETURN(ColumnPtr out, col->Gather(cand->ints()));
  *a.results[0] = RegisterValue::Bat(std::move(out));
  return Status::OK();
}

void TransferProjection(const TransferContext& ctx,
                        std::vector<AbstractValue>* r) {
  if (r->size() != 1) return;
  AbstractValue& out = (*r)[0];
  const AbstractValue& cand = Arg(ctx, 0);
  const AbstractValue& col = Arg(ctx, 1);
  out.elem = col.elem;
  out.nullable = col.nullable;
  if (cand.defined && cand.is_bat == Tri::kTrue) out.card = cand.card;
}

/// Hash key for join build sides: canonicalizes numerics to a bit pattern.
struct JoinKey {
  uint64_t bits;
  bool operator==(const JoinKey& other) const = default;
};
struct JoinKeyHash {
  size_t operator()(const JoinKey& k) const {
    return std::hash<uint64_t>()(k.bits * 0x9E3779B97F4A7C15ULL);
  }
};

/// The key of row `i`. When both join sides are integer-typed the key is
/// the integer itself, so distinct :lng values above 2^53 stay distinct.
/// With a :dbl side (`as_double`), integers key by their double
/// representation so an :lng column joins a :dbl column holding integral
/// values.
Result<JoinKey> NumericKey(const ColumnPtr& col, size_t i, bool as_double) {
  switch (col->type()) {
    case DataType::kInt64:
    case DataType::kOid:
    case DataType::kBool: {
      if (!as_double) return JoinKey{static_cast<uint64_t>(col->IntAt(i))};
      double d = static_cast<double>(col->IntAt(i));
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      return JoinKey{bits};
    }
    case DataType::kDouble: {
      double d = col->DoubleAt(i);
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      return JoinKey{bits};
    }
    default:
      return Status::TypeError("join key column is not numeric");
  }
}

/// algebra.join(l, r) (:bat[:oid], :bat[:oid]) — positions of matching value
/// pairs (hash equi-join; NULLs never match).
Status AlgebraJoin(KernelArgs& a) {
  STETHO_RETURN_IF_ERROR(ExpectArity(a, 2, 2));
  STETHO_ASSIGN_OR_RETURN(ColumnPtr l, ArgBat(a, 0));
  STETHO_ASSIGN_OR_RETURN(ColumnPtr r, ArgBat(a, 1));

  ColumnPtr lout = Column::Make(DataType::kOid);
  ColumnPtr rout = Column::Make(DataType::kOid);

  if (l->type() == DataType::kString || r->type() == DataType::kString) {
    if (l->type() != DataType::kString || r->type() != DataType::kString) {
      return Status::TypeError("algebra.join: cannot join :str with numeric");
    }
    std::unordered_map<std::string_view, std::vector<uint64_t>> build;
    build.reserve(r->size());
    for (size_t i = 0; i < r->size(); ++i) {
      if (!r->IsNull(i)) build[r->StringAt(i)].push_back(i);
    }
    for (size_t i = 0; i < l->size(); ++i) {
      if (l->IsNull(i)) continue;
      auto it = build.find(l->StringAt(i));
      if (it == build.end()) continue;
      for (uint64_t j : it->second) {
        lout->AppendOid(i);
        rout->AppendOid(j);
      }
    }
  } else {
    const bool as_double =
        l->type() == DataType::kDouble || r->type() == DataType::kDouble;
    std::unordered_map<JoinKey, std::vector<uint64_t>, JoinKeyHash> build;
    build.reserve(r->size());
    for (size_t i = 0; i < r->size(); ++i) {
      if (r->IsNull(i)) continue;
      STETHO_ASSIGN_OR_RETURN(JoinKey key, NumericKey(r, i, as_double));
      build[key].push_back(i);
    }
    for (size_t i = 0; i < l->size(); ++i) {
      if (l->IsNull(i)) continue;
      STETHO_ASSIGN_OR_RETURN(JoinKey key, NumericKey(l, i, as_double));
      auto it = build.find(key);
      if (it == build.end()) continue;
      for (uint64_t j : it->second) {
        lout->AppendOid(i);
        rout->AppendOid(j);
      }
    }
  }
  *a.results[0] = RegisterValue::Bat(std::move(lout));
  *a.results[1] = RegisterValue::Bat(std::move(rout));
  return Status::OK();
}

void TransferJoin(const TransferContext& ctx, std::vector<AbstractValue>* r) {
  if (r->size() != 2) return;
  Interval card =
      Interval::SaturatingMulUpper(Arg(ctx, 0).card, Arg(ctx, 1).card);
  for (AbstractValue& out : *r) {
    out.elem = DataType::kOid;
    out.nullable = Tri::kFalse;
    out.card = card;
  }
}

/// Stable-sorts `order` by raw array values — no per-comparison boxing.
template <typename T>
void SortOrderTyped(std::vector<int64_t>* order, const std::vector<T>& vals,
                    bool reverse) {
  if (reverse) {
    std::stable_sort(order->begin(), order->end(), [&](int64_t x, int64_t y) {
      return vals[static_cast<size_t>(y)] < vals[static_cast<size_t>(x)];
    });
  } else {
    std::stable_sort(order->begin(), order->end(), [&](int64_t x, int64_t y) {
      return vals[static_cast<size_t>(x)] < vals[static_cast<size_t>(y)];
    });
  }
}

/// Sort permutation of `col` (stable; NULLs first; ascending unless reverse).
std::vector<int64_t> SortOrder(const ColumnPtr& col, bool reverse) {
  std::vector<int64_t> order(col->size());
  std::iota(order.begin(), order.end(), 0);
  // Typed comparators for null-free columns; NULL handling (NULLs sort
  // first via Value::Compare) stays on the boxed fallback.
  if (!col->has_nulls()) {
    switch (col->type()) {
      case DataType::kInt64:
      case DataType::kOid:
      case DataType::kBool:
        SortOrderTyped(&order, col->ints(), reverse);
        return order;
      case DataType::kDouble:
        SortOrderTyped(&order, col->doubles(), reverse);
        return order;
      case DataType::kString:
        SortOrderTyped(&order, col->strings(), reverse);
        return order;
      default:
        break;
    }
  }
  std::stable_sort(order.begin(), order.end(), [&](int64_t x, int64_t y) {
    int c = col->GetValue(static_cast<size_t>(x))
                .Compare(col->GetValue(static_cast<size_t>(y)));
    return reverse ? c > 0 : c < 0;
  });
  return order;
}

/// algebra.sort(col, reverse) (:bat, :bat[:oid]) — sorted values plus the
/// permutation that produced them.
Status AlgebraSort(KernelArgs& a) {
  STETHO_RETURN_IF_ERROR(ExpectArity(a, 2, 2));
  STETHO_ASSIGN_OR_RETURN(ColumnPtr col, ArgBat(a, 0));
  STETHO_ASSIGN_OR_RETURN(Value rev, ArgScalar(a, 1));
  bool reverse = rev.type() == DataType::kBool && rev.AsBool();
  std::vector<int64_t> order = SortOrder(col, reverse);
  STETHO_ASSIGN_OR_RETURN(ColumnPtr sorted, col->Gather(order));
  ColumnPtr perm = Column::Make(DataType::kOid);
  perm->Reserve(order.size());
  for (int64_t i : order) perm->AppendOid(static_cast<uint64_t>(i));
  *a.results[0] = RegisterValue::Bat(std::move(sorted));
  *a.results[1] = RegisterValue::Bat(std::move(perm));
  return Status::OK();
}

void TransferSort(const TransferContext& ctx, std::vector<AbstractValue>* r) {
  if (r->size() != 2) return;
  const AbstractValue& in = Arg(ctx, 0);
  AbstractValue& values = (*r)[0];
  values.elem = in.elem;
  values.nullable = in.nullable;
  if (in.defined && in.is_bat == Tri::kTrue) values.card = in.card;
  // Ascending sort provably sorts; descending output may still be ascending
  // when all keys are equal, so it stays unknown rather than kFalse.
  const AbstractValue& rev = Arg(ctx, 1);
  if (rev.constant.has_value() && rev.constant->type() == DataType::kBool &&
      !rev.constant->AsBool()) {
    values.sorted = Tri::kTrue;
  }
  AbstractValue& perm = (*r)[1];
  perm.elem = DataType::kOid;
  perm.nullable = Tri::kFalse;
  perm.card = values.card;
}

/// algebra.slice(col, lo, hi) :bat — rows [lo, hi) (LIMIT/OFFSET).
Status AlgebraSlice(KernelArgs& a) {
  STETHO_RETURN_IF_ERROR(ExpectArity(a, 3, 1));
  STETHO_ASSIGN_OR_RETURN(ColumnPtr col, ArgBat(a, 0));
  STETHO_ASSIGN_OR_RETURN(int64_t lo, ArgInt(a, 1));
  STETHO_ASSIGN_OR_RETURN(int64_t hi, ArgInt(a, 2));
  if (lo < 0 || hi < lo) {
    return Status::InvalidArgument("algebra.slice: bad range");
  }
  *a.results[0] = RegisterValue::Bat(
      col->Slice(static_cast<size_t>(lo), static_cast<size_t>(hi)));
  return Status::OK();
}

void TransferSlice(const TransferContext& ctx, std::vector<AbstractValue>* r) {
  if (r->size() != 1) return;
  AbstractValue& out = (*r)[0];
  const AbstractValue& in = Arg(ctx, 0);
  out.elem = in.elem;
  out.nullable = in.nullable;
  out.sorted = in.sorted;
  int64_t lo = 0;
  int64_t hi = 0;
  if (ConstInt(ctx, 1, &lo) && ConstInt(ctx, 2, &hi) && lo >= 0 && hi >= lo) {
    // rows(n) = min(hi, n) - min(lo, n), monotone in n.
    auto rows = [lo, hi](int64_t n) {
      return std::min(hi, n) - std::min(lo, n);
    };
    out.card = Interval{rows(in.card.lo), rows(in.card.hi)};
  } else {
    out.card = Interval{0, in.card.hi};
  }
}

/// algebra.firstn(col, n, asc) :bat[:oid] — positions of the n smallest
/// (asc) or largest (!asc) values, in sorted order.
Status AlgebraFirstn(KernelArgs& a) {
  STETHO_RETURN_IF_ERROR(ExpectArity(a, 3, 1));
  STETHO_ASSIGN_OR_RETURN(ColumnPtr col, ArgBat(a, 0));
  STETHO_ASSIGN_OR_RETURN(int64_t n, ArgInt(a, 1));
  STETHO_ASSIGN_OR_RETURN(Value asc_v, ArgScalar(a, 2));
  bool asc = !(asc_v.type() == DataType::kBool && !asc_v.AsBool());
  if (n < 0) return Status::InvalidArgument("algebra.firstn: negative n");
  std::vector<int64_t> order = SortOrder(col, /*reverse=*/!asc);
  if (static_cast<size_t>(n) < order.size()) order.resize(static_cast<size_t>(n));
  ColumnPtr out = Column::Make(DataType::kOid);
  out->Reserve(order.size());
  for (int64_t i : order) out->AppendOid(static_cast<uint64_t>(i));
  *a.results[0] = RegisterValue::Bat(std::move(out));
  return Status::OK();
}

void TransferFirstn(const TransferContext& ctx,
                    std::vector<AbstractValue>* r) {
  if (r->size() != 1) return;
  AbstractValue& out = (*r)[0];
  out.elem = DataType::kOid;
  out.nullable = Tri::kFalse;
  int64_t n = 0;
  int64_t hi = Arg(ctx, 0).card.hi;
  if (ConstInt(ctx, 1, &n)) hi = std::min(hi, std::max<int64_t>(0, n));
  out.card = Interval{0, hi};
}

/// batcalc.like(col, pattern) :bat[:bit] — per-row LIKE mask (used when a
/// LIKE lands inside a residual OR expression rather than a pushdown).
Status BatcalcLike(KernelArgs& a) {
  STETHO_RETURN_IF_ERROR(ExpectArity(a, 2, 1));
  STETHO_ASSIGN_OR_RETURN(ColumnPtr col, ArgBat(a, 0));
  STETHO_ASSIGN_OR_RETURN(Value pat, ArgScalar(a, 1));
  if (col->type() != DataType::kString ||
      pat.type() != DataType::kString) {
    return Status::TypeError("batcalc.like: needs :str column and pattern");
  }
  ColumnPtr out = Column::Make(DataType::kBool);
  out->Reserve(col->size());
  for (size_t i = 0; i < col->size(); ++i) {
    if (col->IsNull(i)) {
      out->AppendNull();
    } else {
      out->AppendBool(LikeMatch(col->StringAt(i), pat.AsString()));
    }
  }
  *a.results[0] = RegisterValue::Bat(std::move(out));
  return Status::OK();
}

void TransferLike(const TransferContext& ctx, std::vector<AbstractValue>* r) {
  if (r->size() != 1) return;
  AbstractValue& out = (*r)[0];
  out.elem = DataType::kBool;
  const AbstractValue& in = Arg(ctx, 0);
  out.nullable = in.nullable;
  if (in.defined && in.is_bat == Tri::kTrue) out.card = in.card;
}

}  // namespace

void RegisterAlgebraKernels(ModuleRegistry* r) {
  STETHO_CHECK_REGISTER(r->Register(
      "batcalc", "like", BatcalcLike,
      {.args = {kBat, kScalar},
       .results = {kBat},
       .arg_elem = {DataType::kString, DataType::kString},
       .transfer = TransferLike,
       .exact_capacity = true}));
  STETHO_CHECK_REGISTER(r->Register(
      "algebra", "select", AlgebraSelect,
      {.args = {kBat, kBat, kScalar, kScalar},
       .results = {kBat},
       .role = KernelRole::kCandidateSelect,
       .candidate_args = {1},
       .transfer = TransferSelect}));
  STETHO_CHECK_REGISTER(r->Register(
      "algebra", "thetaselect", AlgebraThetaSelect,
      {.args = {kBat, kBat, kScalar, kScalar},
       .results = {kBat},
       .role = KernelRole::kCandidateSelect,
       .arg_elem = {analysis::kAnyElem, analysis::kAnyElem,
                    analysis::kAnyElem, DataType::kString},
       .candidate_args = {1},
       .transfer = TransferSelect}));
  STETHO_CHECK_REGISTER(r->Register(
      "algebra", "likeselect", AlgebraLikeSelect,
      {.args = {kBat, kBat, kScalar},
       .results = {kBat},
       .role = KernelRole::kCandidateSelect,
       .arg_elem = {DataType::kString, analysis::kAnyElem, DataType::kString},
       .candidate_args = {1},
       .transfer = TransferSelect}));
  STETHO_CHECK_REGISTER(r->Register(
      "algebra", "selectmask", AlgebraSelectMask,
      {.args = {kBat, kBat},
       .results = {kBat},
       .arg_elem = {analysis::kAnyElem, DataType::kBool},
       .equal_card_args = {{0, 1}},
       .candidate_args = {0},
       .transfer = TransferSelectmask}));
  STETHO_CHECK_REGISTER(r->Register(
      "algebra", "projection", AlgebraProjection,
      {.args = {kBat, kBat},
       .results = {kBat},
       .role = KernelRole::kProjection,
       .candidate_args = {0},
       .transfer = TransferProjection,
       .exact_capacity = true,
       .cost_factor = analysis::kGatherCost}));
  STETHO_CHECK_REGISTER(r->Register(
      "algebra", "join", AlgebraJoin,
      {.args = {kBat, kBat},
       .results = {kBat, kBat},
       .transfer = TransferJoin}));
  STETHO_CHECK_REGISTER(r->Register(
      "algebra", "sort", AlgebraSort,
      {.args = {kBat, kScalar},
       .results = {kBat, kBat},
       .arg_elem = {analysis::kAnyElem, DataType::kBool},
       .transfer = TransferSort,
       .exact_capacity = true,
       .cost_factor = analysis::kGatherCost}));
  STETHO_CHECK_REGISTER(r->Register(
      "algebra", "slice", AlgebraSlice,
      {.args = {kBat, kScalar, kScalar},
       .results = {kBat},
       .transfer = TransferSlice,
       .exact_capacity = true}));
  STETHO_CHECK_REGISTER(r->Register(
      "algebra", "firstn", AlgebraFirstn,
      {.args = {kBat, kScalar, kScalar},
       .results = {kBat},
       .arg_elem = {analysis::kAnyElem, analysis::kAnyElem, DataType::kBool},
       .transfer = TransferFirstn,
       .exact_capacity = true}));
}

}  // namespace stetho::engine
