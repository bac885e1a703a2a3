#include "analysis/domain.h"

#include <algorithm>

#include "common/string_util.h"

namespace stetho::analysis {

using storage::DataType;
using storage::Value;

Interval Interval::Join(const Interval& other) const {
  return Interval{std::min(lo, other.lo), std::max(hi, other.hi)};
}

Interval Interval::Meet(const Interval& other) const {
  return Interval{std::max(lo, other.lo), std::min(hi, other.hi)};
}

Interval Interval::SaturatingAdd(const Interval& a, const Interval& b) {
  auto add = [](int64_t x, int64_t y) {
    if (x >= kUnbounded - y) return kUnbounded;
    return x + y;
  };
  return Interval{add(a.lo, b.lo), add(a.hi, b.hi)};
}

Interval Interval::SaturatingMulUpper(const Interval& a, const Interval& b) {
  int64_t hi;
  if (a.hi == 0 || b.hi == 0) {
    hi = 0;
  } else if (a.hi >= kUnbounded / b.hi) {
    hi = kUnbounded;
  } else {
    hi = a.hi * b.hi;
  }
  return Interval{0, hi};
}

std::string Interval::ToString() const {
  if (hi == kUnbounded) {
    return StrFormat("[%lld, *]", static_cast<long long>(lo));
  }
  return StrFormat("[%lld, %lld]", static_cast<long long>(lo),
                   static_cast<long long>(hi));
}

const char* TriName(Tri t) {
  switch (t) {
    case Tri::kUnknown:
      return "?";
    case Tri::kFalse:
      return "no";
    case Tri::kTrue:
      return "yes";
  }
  return "?";
}

Tri TriOr(Tri a, Tri b) {
  if (a == Tri::kTrue || b == Tri::kTrue) return Tri::kTrue;
  if (a == Tri::kUnknown || b == Tri::kUnknown) return Tri::kUnknown;
  return Tri::kFalse;
}

AbstractValue AbstractValue::Top() {
  AbstractValue v;
  v.defined = true;
  return v;
}

AbstractValue AbstractValue::FromConstant(const Value& value) {
  AbstractValue v;
  v.defined = true;
  v.is_bat = Tri::kFalse;
  v.elem = value.type();  // kNull for a NULL literal = unknown type
  v.card = Interval::Exact(1);
  v.nullable = value.is_null() ? Tri::kTrue : Tri::kFalse;
  v.constant = value;
  return v;
}

AbstractValue AbstractValue::FromDeclared(const mal::Variable& var) {
  AbstractValue v;
  v.defined = true;
  v.is_bat = var.type.is_bat ? Tri::kTrue : Tri::kFalse;
  v.elem = var.type.base;
  if (var.type.is_bat) {
    v.card = var.has_cardinality() ? Interval::Range(var.card_lo, var.card_hi)
                                   : Interval::Unknown();
  } else {
    v.card = Interval::Exact(1);
  }
  return v;
}

AbstractValue AbstractValue::Join(const AbstractValue& other) const {
  if (!defined) return other;
  if (!other.defined) return *this;
  AbstractValue out;
  out.defined = true;
  out.is_bat = is_bat == other.is_bat ? is_bat : Tri::kUnknown;
  out.elem = elem == other.elem ? elem : DataType::kNull;
  out.card = card.Join(other.card);
  out.nullable = nullable == other.nullable ? nullable : Tri::kUnknown;
  out.sorted = sorted == other.sorted ? sorted : Tri::kUnknown;
  if (constant.has_value() && other.constant.has_value() &&
      *constant == *other.constant) {
    out.constant = constant;
  }
  return out;
}

bool AbstractValue::CompatibleWith(const AbstractValue& other) const {
  if (!defined || !other.defined) return true;
  auto tri_conflict = [](Tri a, Tri b) {
    return (a == Tri::kTrue && b == Tri::kFalse) ||
           (a == Tri::kFalse && b == Tri::kTrue);
  };
  if (tri_conflict(is_bat, other.is_bat)) return false;
  if (elem_known() && other.elem_known() && elem != other.elem) return false;
  if (!card.Overlaps(other.card)) return false;
  if (tri_conflict(nullable, other.nullable)) return false;
  if (tri_conflict(sorted, other.sorted)) return false;
  if (constant.has_value() && other.constant.has_value() &&
      *constant != *other.constant) {
    return false;
  }
  return true;
}

std::string AbstractValue::ToString() const {
  if (!defined) return "<undefined>";
  if (constant.has_value()) {
    return StrFormat("const %s%s", constant->ToString().c_str(),
                     DataTypeName(elem));
  }
  std::string shape = is_bat == Tri::kTrue    ? "bat["
                      : is_bat == Tri::kFalse ? ""
                                              : "?[";
  std::string out = shape;
  out += elem_known() ? DataTypeName(elem) : ":?";
  if (is_bat != Tri::kFalse) out += "]";
  out += " card=" + card.ToString();
  out += StrFormat(" null=%s sorted=%s", TriName(nullable), TriName(sorted));
  return out;
}

const AbstractValue& Arg(const TransferContext& ctx, size_t i) {
  static const AbstractValue& top = *new AbstractValue(AbstractValue::Top());
  if (ctx.args == nullptr || i >= ctx.args->size()) return top;
  return (*ctx.args)[i];
}

bool ConstInt(const TransferContext& ctx, size_t i, int64_t* out) {
  const AbstractValue& v = Arg(ctx, i);
  if (!v.constant.has_value()) return false;
  auto r = v.constant->ToInt();
  if (!r.ok()) return false;
  *out = r.value();
  return true;
}

Interval ZipCard(const TransferContext& ctx) {
  bool any = false;
  Interval meet = Interval::Unknown();
  Interval hull{Interval::kUnbounded, 0};
  for (size_t i = 0; ctx.args != nullptr && i < ctx.args->size(); ++i) {
    const AbstractValue& v = (*ctx.args)[i];
    if (!v.defined || v.is_bat != Tri::kTrue) continue;
    meet = meet.Meet(v.card);
    hull = any ? hull.Join(v.card) : v.card;
    any = true;
  }
  if (!any) return Interval::Unknown();
  return meet.lo <= meet.hi ? meet : hull;
}

DataType ArithElem(const TransferContext& ctx, bool is_div) {
  if (is_div) return DataType::kDouble;
  bool all_known = true;
  for (size_t i = 0; ctx.args != nullptr && i < ctx.args->size(); ++i) {
    const AbstractValue& v = (*ctx.args)[i];
    if (v.elem == DataType::kDouble) return DataType::kDouble;
    if (!v.elem_known()) all_known = false;
  }
  return all_known ? DataType::kInt64 : DataType::kNull;
}

Tri PropagatedNullable(const TransferContext& ctx) {
  Tri out = Tri::kFalse;
  for (size_t i = 0; ctx.args != nullptr && i < ctx.args->size(); ++i) {
    out = TriOr(out, (*ctx.args)[i].nullable);
  }
  return out;
}

}  // namespace stetho::analysis
