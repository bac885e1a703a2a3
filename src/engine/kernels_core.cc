#include <algorithm>
#include <cmath>

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

// ---------------------------------------------------------------------------
// sql module: catalog access.
// ---------------------------------------------------------------------------

/// sql.mvc() :lng — returns the session/transaction handle (always 0 here;
/// exists so generated plans match MonetDB's shape).
Status SqlMvc(KernelArgs& a) {
  STETHO_RETURN_IF_ERROR(ExpectArity(a, 0, 1));
  *a.results[0] = RegisterValue::Scalar(Value::Int(0));
  return Status::OK();
}

void TransferMvc(const TransferContext& /*ctx*/,
                 std::vector<AbstractValue>* r) {
  if (r->size() != 1) return;
  (*r)[0].elem = DataType::kInt64;
  (*r)[0].nullable = Tri::kFalse;
}

/// sql.tid(mvc, schema, table) :bat[:oid] — all visible row ids of a table.
Status SqlTid(KernelArgs& a) {
  STETHO_RETURN_IF_ERROR(ExpectArity(a, 3, 1));
  STETHO_ASSIGN_OR_RETURN(std::string table, ArgString(a, 2));
  STETHO_ASSIGN_OR_RETURN(storage::TablePtr t, a.ctx->catalog()->GetTable(table));
  *a.results[0] =
      RegisterValue::Bat(Column::MakeOidRange(0, t->num_rows()));
  return Status::OK();
}

void TransferTid(const TransferContext& /*ctx*/,
                 std::vector<AbstractValue>* r) {
  if (r->size() != 1) return;
  AbstractValue& out = (*r)[0];
  out.elem = DataType::kOid;
  out.sorted = Tri::kTrue;
  out.nullable = Tri::kFalse;
}

/// sql.bind(mvc, schema, table, column, access) :bat — a full base column.
Status SqlBind(KernelArgs& a) {
  STETHO_RETURN_IF_ERROR(ExpectArity(a, 5, 1));
  STETHO_ASSIGN_OR_RETURN(std::string table, ArgString(a, 2));
  STETHO_ASSIGN_OR_RETURN(std::string column, ArgString(a, 3));
  STETHO_ASSIGN_OR_RETURN(storage::TablePtr t, a.ctx->catalog()->GetTable(table));
  STETHO_ASSIGN_OR_RETURN(ColumnPtr col, t->GetColumn(column));
  *a.results[0] = RegisterValue::Bat(std::move(col));
  return Status::OK();
}

/// sql.resultSet(name, value) — appends one named output column (or scalar).
Status SqlResultSet(KernelArgs& a) {
  STETHO_RETURN_IF_ERROR(ExpectArity(a, 2, 0));
  STETHO_ASSIGN_OR_RETURN(std::string name, ArgString(a, 0));
  ResultColumn rc;
  rc.name = std::move(name);
  rc.order = ResultOrderKey(a.ins->pc, 0);
  if (a.args[1]->is_bat()) {
    rc.column = a.args[1]->bat;
  } else {
    rc.is_scalar = true;
    rc.scalar = a.args[1]->scalar;
  }
  a.ctx->AddResult(std::move(rc));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// bat module: BAT bookkeeping.
// ---------------------------------------------------------------------------

/// bat.mirror(b) :bat[:oid] — the positions of b as oids.
Status BatMirror(KernelArgs& a) {
  STETHO_RETURN_IF_ERROR(ExpectArity(a, 1, 1));
  STETHO_ASSIGN_OR_RETURN(ColumnPtr b, ArgBat(a, 0));
  *a.results[0] = RegisterValue::Bat(Column::MakeOidRange(0, b->size()));
  return Status::OK();
}

void TransferMirror(const TransferContext& ctx,
                    std::vector<AbstractValue>* r) {
  if (r->size() != 1) return;
  AbstractValue& out = (*r)[0];
  out.elem = DataType::kOid;
  out.sorted = Tri::kTrue;
  out.nullable = Tri::kFalse;
  const AbstractValue& in = Arg(ctx, 0);
  if (in.defined && in.is_bat == Tri::kTrue) out.card = in.card;
}

/// bat.partition(b, pieces, index) :bat — the index-th of `pieces`
/// near-equal horizontal slices of b (the mitosis optimizer's workhorse).
Status BatPartition(KernelArgs& a) {
  STETHO_RETURN_IF_ERROR(ExpectArity(a, 3, 1));
  STETHO_ASSIGN_OR_RETURN(ColumnPtr b, ArgBat(a, 0));
  STETHO_ASSIGN_OR_RETURN(int64_t pieces, ArgInt(a, 1));
  STETHO_ASSIGN_OR_RETURN(int64_t index, ArgInt(a, 2));
  if (pieces <= 0 || index < 0 || index >= pieces) {
    return Status::InvalidArgument(
        StrFormat("bat.partition: bad (pieces=%lld, index=%lld)",
                  static_cast<long long>(pieces), static_cast<long long>(index)));
  }
  size_t n = b->size();
  size_t lo = (n * static_cast<size_t>(index)) / static_cast<size_t>(pieces);
  size_t hi =
      (n * static_cast<size_t>(index + 1)) / static_cast<size_t>(pieces);
  *a.results[0] = RegisterValue::Bat(b->Slice(lo, hi));
  return Status::OK();
}

void TransferPartition(const TransferContext& ctx,
                       std::vector<AbstractValue>* r) {
  if (r->size() != 1) return;
  AbstractValue& out = (*r)[0];
  const AbstractValue& in = Arg(ctx, 0);
  out.elem = in.elem;
  out.sorted = in.sorted;
  out.nullable = in.nullable;
  // A piece holds between 0 and ceil(n / pieces) of the input's rows: the
  // kernel slices [n*i/p, n*(i+1)/p), and no such slice exceeds the ceiling.
  // The lower bound stays 0 (the exact split n*(i+1)/p - n*i/p is
  // deliberately not used: it would prove tiny pieces empty and drown
  // small-table plans in guaranteed-empty warnings). The ceiling matters for
  // the memory model: without it every piece is bounded by the FULL input,
  // and mat.pack's sum inflates downstream cardinalities by the piece count.
  out.card = Interval{0, in.card.hi};
  int64_t pieces = 0;
  if (ConstInt(ctx, 1, &pieces) && pieces > 0 &&
      in.card.hi != Interval::kUnbounded) {
    out.card.hi = (in.card.hi + pieces - 1) / pieces;
  }
}

/// bat.densebat(n) :bat[:oid] — oids [0, n).
Status BatDense(KernelArgs& a) {
  STETHO_RETURN_IF_ERROR(ExpectArity(a, 1, 1));
  STETHO_ASSIGN_OR_RETURN(int64_t n, ArgInt(a, 0));
  if (n < 0) return Status::InvalidArgument("bat.densebat: negative size");
  *a.results[0] =
      RegisterValue::Bat(Column::MakeOidRange(0, static_cast<uint64_t>(n)));
  return Status::OK();
}

void TransferDensebat(const TransferContext& ctx,
                      std::vector<AbstractValue>* r) {
  if (r->size() != 1) return;
  AbstractValue& out = (*r)[0];
  out.elem = DataType::kOid;
  out.sorted = Tri::kTrue;
  out.nullable = Tri::kFalse;
  int64_t n = 0;
  if (ConstInt(ctx, 0, &n)) out.card = Interval::Exact(std::max<int64_t>(0, n));
}

/// bat.append(a, b) :bat — concatenation of two BATs of the same type.
Status BatAppend(KernelArgs& a) {
  STETHO_RETURN_IF_ERROR(ExpectArity(a, 2, 1));
  STETHO_ASSIGN_OR_RETURN(ColumnPtr x, ArgBat(a, 0));
  STETHO_ASSIGN_OR_RETURN(ColumnPtr y, ArgBat(a, 1));
  if (x->type() != y->type()) {
    return Status::TypeError("bat.append: element type mismatch");
  }
  ColumnPtr out = x->Slice(0, x->size());
  STETHO_RETURN_IF_ERROR(out->AppendColumn(*y));
  *a.results[0] = RegisterValue::Bat(std::move(out));
  return Status::OK();
}

void TransferAppend(const TransferContext& ctx,
                    std::vector<AbstractValue>* r) {
  if (r->size() != 1) return;
  AbstractValue& out = (*r)[0];
  const AbstractValue& x = Arg(ctx, 0);
  const AbstractValue& y = Arg(ctx, 1);
  if (x.elem_known() && x.elem == y.elem) out.elem = x.elem;
  out.card = Interval::SaturatingAdd(x.card, y.card);
  out.nullable = TriOr(x.nullable, y.nullable);
}

// ---------------------------------------------------------------------------
// mat module: merge partitioned intermediates (mergetable).
// ---------------------------------------------------------------------------

/// mat.pack(b1, b2, ...) :bat — concatenates any number of same-typed BATs;
/// rejoins mitosis slices.
Status MatPack(KernelArgs& a) {
  if (a.results.size() != 1 || a.args.empty()) {
    return Status::InvalidArgument("mat.pack: needs >=1 args, 1 result");
  }
  STETHO_ASSIGN_OR_RETURN(ColumnPtr first, ArgBat(a, 0));
  ColumnPtr out = Column::Make(first->type());
  size_t total = 0;
  for (size_t k = 0; k < a.args.size(); ++k) {
    STETHO_ASSIGN_OR_RETURN(ColumnPtr piece, ArgBat(a, k));
    if (piece->type() != first->type()) {
      return Status::TypeError("mat.pack: element type mismatch");
    }
    total += piece->size();
  }
  out->Reserve(total);
  for (size_t k = 0; k < a.args.size(); ++k) {
    STETHO_ASSIGN_OR_RETURN(ColumnPtr piece, ArgBat(a, k));
    STETHO_RETURN_IF_ERROR(out->AppendColumn(*piece));
  }
  *a.results[0] = RegisterValue::Bat(std::move(out));
  return Status::OK();
}

void TransferPack(const TransferContext& ctx, std::vector<AbstractValue>* r) {
  if (r->size() != 1 || ctx.args == nullptr || ctx.args->empty()) return;
  AbstractValue& out = (*r)[0];
  DataType elem = (*ctx.args)[0].elem;
  Interval card = Interval::Exact(0);
  Tri nullable = Tri::kFalse;
  for (const AbstractValue& v : *ctx.args) {
    if (v.elem != elem) elem = DataType::kNull;
    card = Interval::SaturatingAdd(card, v.card);
    nullable = TriOr(nullable, v.nullable);
  }
  out.elem = elem;
  out.card = card;
  out.nullable = nullable;
}

// ---------------------------------------------------------------------------
// calc / batcalc modules: scalar and vectorized arithmetic.
// ---------------------------------------------------------------------------

enum class BinOp { kAdd, kSub, kMul, kDiv, kEq, kNe, kLt, kLe, kGt, kGe };

bool IsComparison(BinOp op) {
  return op == BinOp::kEq || op == BinOp::kNe || op == BinOp::kLt ||
         op == BinOp::kLe || op == BinOp::kGt || op == BinOp::kGe;
}

Result<double> ApplyDouble(BinOp op, double x, double y) {
  switch (op) {
    case BinOp::kAdd:
      return x + y;
    case BinOp::kSub:
      return x - y;
    case BinOp::kMul:
      return x * y;
    case BinOp::kDiv:
      if (y == 0.0) return Status::InvalidArgument("division by zero");
      return x / y;
    default:
      return Status::Internal("ApplyDouble on comparison op");
  }
}

/// Integer add, sub and mul, exact: a result outside :lng is an error, as in
/// MonetDB, never a wrapped or rounded value.
Result<int64_t> ApplyInt(BinOp op, int64_t x, int64_t y) {
  int64_t v = 0;
  bool overflow = false;
  const char* symbol = "";
  switch (op) {
    case BinOp::kAdd:
      overflow = __builtin_add_overflow(x, y, &v);
      symbol = "+";
      break;
    case BinOp::kSub:
      overflow = __builtin_sub_overflow(x, y, &v);
      symbol = "-";
      break;
    case BinOp::kMul:
      overflow = __builtin_mul_overflow(x, y, &v);
      symbol = "*";
      break;
    default:
      return Status::Internal("ApplyInt on division or comparison op");
  }
  if (overflow) {
    return Status::OutOfRange(StrFormat("integer overflow: %lld %s %lld",
                                        static_cast<long long>(x), symbol,
                                        static_cast<long long>(y)));
  }
  return v;
}

template <typename T>
bool ApplyCompare(BinOp op, T x, T y) {
  switch (op) {
    case BinOp::kEq:
      return x == y;
    case BinOp::kNe:
      return x != y;
    case BinOp::kLt:
      return x < y;
    case BinOp::kLe:
      return x <= y;
    case BinOp::kGt:
      return x > y;
    case BinOp::kGe:
      return x >= y;
    default:
      return false;
  }
}

/// A numeric operand: broadcast scalar or full column.
struct NumOperand {
  ColumnPtr bat;       // null => scalar
  double scalar = 0;
  int64_t int_scalar = 0;  // the scalar when it is not a :dbl
  bool scalar_is_double = false;

  size_t size() const { return bat ? bat->size() : 0; }
  bool is_double() const {
    if (bat) return bat->type() == DataType::kDouble;
    return scalar_is_double;
  }
  bool IsNull(size_t i) const { return bat ? bat->IsNull(i) : false; }
  double At(size_t i) const {
    if (!bat) return scalar;
    return bat->type() == DataType::kDouble
               ? bat->DoubleAt(i)
               : static_cast<double>(bat->IntAt(i));
  }
  /// Precondition: !is_double().
  int64_t IntAt(size_t i) const { return bat ? bat->IntAt(i) : int_scalar; }
};

Result<NumOperand> MakeOperand(const KernelArgs& a, size_t i) {
  NumOperand op;
  if (a.args[i]->is_bat()) {
    op.bat = a.args[i]->bat;
    DataType t = op.bat->type();
    if (t != DataType::kInt64 && t != DataType::kDouble &&
        t != DataType::kBool && t != DataType::kOid) {
      return Status::TypeError(
          StrFormat("%s: argument %zu is not numeric", a.ins->FullName().c_str(), i));
    }
    return op;
  }
  STETHO_ASSIGN_OR_RETURN(double v, ArgDouble(a, i));
  op.scalar = v;
  op.scalar_is_double = a.args[i]->scalar.type() == DataType::kDouble;
  if (!op.scalar_is_double) {
    STETHO_ASSIGN_OR_RETURN(op.int_scalar, ArgInt(a, i));
  }
  return op;
}

/// String operand for vectorized comparisons: broadcast scalar or column.
struct StrOperand {
  ColumnPtr bat;
  std::string scalar;

  bool IsNull(size_t i) const { return bat ? bat->IsNull(i) : false; }
  const std::string& At(size_t i) const {
    return bat ? bat->StringAt(i) : scalar;
  }
};

Result<StrOperand> MakeStrOperand(const KernelArgs& a, size_t i) {
  StrOperand op;
  if (a.args[i]->is_bat()) {
    op.bat = a.args[i]->bat;
    if (op.bat->type() != DataType::kString) {
      return Status::TypeError(StrFormat("%s: argument %zu is not a string",
                                         a.ins->FullName().c_str(), i));
    }
    return op;
  }
  if (a.args[i]->scalar.type() != DataType::kString) {
    return Status::TypeError(StrFormat("%s: argument %zu is not a string",
                                       a.ins->FullName().c_str(), i));
  }
  op.scalar = a.args[i]->scalar.AsString();
  return op;
}

/// String comparison path of BatBinOp.
Status BatStringCompare(BinOp op, KernelArgs& a) {
  STETHO_ASSIGN_OR_RETURN(StrOperand lhs, MakeStrOperand(a, 0));
  STETHO_ASSIGN_OR_RETURN(StrOperand rhs, MakeStrOperand(a, 1));
  if (!lhs.bat && !rhs.bat) {
    return Status::TypeError(a.ins->FullName() + ": needs at least one BAT");
  }
  if (lhs.bat && rhs.bat && lhs.bat->size() != rhs.bat->size()) {
    return Status::InvalidArgument(a.ins->FullName() + ": BAT size mismatch");
  }
  size_t n = lhs.bat ? lhs.bat->size() : rhs.bat->size();
  ColumnPtr out = Column::Make(DataType::kBool);
  out->Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (lhs.IsNull(i) || rhs.IsNull(i)) {
      out->AppendNull();
      continue;
    }
    int c = lhs.At(i).compare(rhs.At(i));
    bool r;
    switch (op) {
      case BinOp::kEq:
        r = c == 0;
        break;
      case BinOp::kNe:
        r = c != 0;
        break;
      case BinOp::kLt:
        r = c < 0;
        break;
      case BinOp::kLe:
        r = c <= 0;
        break;
      case BinOp::kGt:
        r = c > 0;
        break;
      default:
        r = c >= 0;
        break;
    }
    out->AppendBool(r);
  }
  *a.results[0] = RegisterValue::Bat(std::move(out));
  return Status::OK();
}

/// Vectorized binary op with scalar broadcasting; at least one side is a BAT.
Status BatBinOp(BinOp op, KernelArgs& a) {
  STETHO_RETURN_IF_ERROR(ExpectArity(a, 2, 1));
  // Comparisons dispatch to the string path when either side is a string.
  auto is_string_arg = [&](size_t i) {
    if (a.args[i]->is_bat()) {
      return a.args[i]->bat->type() == DataType::kString;
    }
    return a.args[i]->scalar.type() == DataType::kString;
  };
  if (IsComparison(op) && (is_string_arg(0) || is_string_arg(1))) {
    return BatStringCompare(op, a);
  }
  STETHO_ASSIGN_OR_RETURN(NumOperand lhs, MakeOperand(a, 0));
  STETHO_ASSIGN_OR_RETURN(NumOperand rhs, MakeOperand(a, 1));
  if (!lhs.bat && !rhs.bat) {
    return Status::TypeError(a.ins->FullName() + ": needs at least one BAT");
  }
  if (lhs.bat && rhs.bat && lhs.bat->size() != rhs.bat->size()) {
    return Status::InvalidArgument(
        StrFormat("%s: BAT size mismatch %zu vs %zu", a.ins->FullName().c_str(),
                  lhs.bat->size(), rhs.bat->size()));
  }
  size_t n = lhs.bat ? lhs.size() : rhs.size();
  // Integer ⊕ integer stays in int64_t; a :dbl side or a division computes
  // in double.
  const bool integers = !lhs.is_double() && !rhs.is_double();

  if (IsComparison(op)) {
    ColumnPtr out = Column::Make(DataType::kBool);
    out->Reserve(n);
    for (size_t i = 0; i < n; ++i) {
      if (lhs.IsNull(i) || rhs.IsNull(i)) {
        out->AppendNull();
      } else {
        out->AppendBool(integers
                            ? ApplyCompare(op, lhs.IntAt(i), rhs.IntAt(i))
                            : ApplyCompare(op, lhs.At(i), rhs.At(i)));
      }
    }
    *a.results[0] = RegisterValue::Bat(std::move(out));
    return Status::OK();
  }

  const bool as_double = !integers || op == BinOp::kDiv;
  ColumnPtr out = Column::Make(as_double ? DataType::kDouble : DataType::kInt64);
  out->Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (lhs.IsNull(i) || rhs.IsNull(i)) {
      out->AppendNull();
      continue;
    }
    if (as_double) {
      STETHO_ASSIGN_OR_RETURN(double v, ApplyDouble(op, lhs.At(i), rhs.At(i)));
      out->AppendDouble(v);
    } else {
      STETHO_ASSIGN_OR_RETURN(int64_t v,
                              ApplyInt(op, lhs.IntAt(i), rhs.IntAt(i)));
      out->AppendInt(v);
    }
  }
  *a.results[0] = RegisterValue::Bat(std::move(out));
  return Status::OK();
}

/// Scalar binary op.
Status CalcBinOp(BinOp op, KernelArgs& a) {
  STETHO_RETURN_IF_ERROR(ExpectArity(a, 2, 1));
  STETHO_ASSIGN_OR_RETURN(Value x, ArgScalar(a, 0));
  STETHO_ASSIGN_OR_RETURN(Value y, ArgScalar(a, 1));
  if (x.is_null() || y.is_null()) {
    *a.results[0] = RegisterValue::Scalar(Value::Null());
    return Status::OK();
  }
  // String comparison path.
  if (x.type() == DataType::kString && y.type() == DataType::kString &&
      IsComparison(op)) {
    int c = x.Compare(y);
    bool r;
    switch (op) {
      case BinOp::kEq:
        r = c == 0;
        break;
      case BinOp::kNe:
        r = c != 0;
        break;
      case BinOp::kLt:
        r = c < 0;
        break;
      case BinOp::kLe:
        r = c <= 0;
        break;
      case BinOp::kGt:
        r = c > 0;
        break;
      default:
        r = c >= 0;
        break;
    }
    *a.results[0] = RegisterValue::Scalar(Value::Bool(r));
    return Status::OK();
  }
  STETHO_ASSIGN_OR_RETURN(double dx, x.ToDouble());
  STETHO_ASSIGN_OR_RETURN(double dy, y.ToDouble());
  // Past ToDouble, a non-:dbl operand is a :lng or :bit, which ToInt takes.
  const bool integers =
      x.type() != DataType::kDouble && y.type() != DataType::kDouble;
  if (IsComparison(op)) {
    const bool r = integers ? ApplyCompare(op, x.ToInt().value(),
                                           y.ToInt().value())
                            : ApplyCompare(op, dx, dy);
    *a.results[0] = RegisterValue::Scalar(Value::Bool(r));
    return Status::OK();
  }
  if (integers && op != BinOp::kDiv) {
    STETHO_ASSIGN_OR_RETURN(
        int64_t v, ApplyInt(op, x.ToInt().value(), y.ToInt().value()));
    *a.results[0] = RegisterValue::Scalar(Value::Int(v));
    return Status::OK();
  }
  STETHO_ASSIGN_OR_RETURN(double v, ApplyDouble(op, dx, dy));
  *a.results[0] = RegisterValue::Scalar(Value::Double(v));
  return Status::OK();
}

/// calc./batcalc. add, sub, mul, div.
template <bool kIsDiv>
void TransferArith(const TransferContext& ctx, std::vector<AbstractValue>* r) {
  if (r->size() != 1) return;
  AbstractValue& out = (*r)[0];
  out.elem = ArithElem(ctx, kIsDiv);
  // x/0 yields NULL, so division is never provably NULL-free.
  out.nullable = kIsDiv ? Tri::kUnknown : PropagatedNullable(ctx);
  if (out.is_bat == Tri::kTrue) out.card = ZipCard(ctx);
}

/// Comparisons and boolean connectives (calc./batcalc. eq..ge, and, or,
/// not): boolean results with NULL propagation.
void TransferCompare(const TransferContext& ctx,
                     std::vector<AbstractValue>* r) {
  if (r->size() != 1) return;
  AbstractValue& out = (*r)[0];
  out.elem = DataType::kBool;
  out.nullable = PropagatedNullable(ctx);
  if (out.is_bat == Tri::kTrue) out.card = ZipCard(ctx);
}

/// calc.lng / calc.dbl / calc.str casts.
Status CalcCast(DataType target, KernelArgs& a) {
  STETHO_RETURN_IF_ERROR(ExpectArity(a, 1, 1));
  STETHO_ASSIGN_OR_RETURN(Value v, ArgScalar(a, 0));
  if (v.is_null()) {
    *a.results[0] = RegisterValue::Scalar(Value::Null());
    return Status::OK();
  }
  switch (target) {
    case DataType::kInt64: {
      if (v.type() == DataType::kDouble) {
        *a.results[0] = RegisterValue::Scalar(
            Value::Int(static_cast<int64_t>(v.AsDouble())));
        return Status::OK();
      }
      STETHO_ASSIGN_OR_RETURN(int64_t i, v.ToInt());
      *a.results[0] = RegisterValue::Scalar(Value::Int(i));
      return Status::OK();
    }
    case DataType::kDouble: {
      STETHO_ASSIGN_OR_RETURN(double d, v.ToDouble());
      *a.results[0] = RegisterValue::Scalar(Value::Double(d));
      return Status::OK();
    }
    case DataType::kString: {
      if (v.type() == DataType::kString) {
        *a.results[0] = RegisterValue::Scalar(v);
      } else {
        *a.results[0] = RegisterValue::Scalar(Value::String(v.ToString()));
      }
      return Status::OK();
    }
    default:
      return Status::Unimplemented("calc cast target");
  }
}

template <DataType kTo>
void TransferCast(const TransferContext& ctx, std::vector<AbstractValue>* r) {
  if (r->size() != 1) return;
  AbstractValue& out = (*r)[0];
  out.elem = kTo;
  out.nullable = Arg(ctx, 0).nullable;
}

/// Boolean operand: broadcast scalar bool or :bit BAT.
struct BoolOperand {
  ColumnPtr bat;
  bool scalar = false;

  bool IsNull(size_t i) const { return bat ? bat->IsNull(i) : false; }
  bool At(size_t i) const { return bat ? bat->BoolAt(i) : scalar; }
};

Result<BoolOperand> MakeBoolOperand(const KernelArgs& a, size_t i) {
  BoolOperand op;
  if (a.args[i]->is_bat()) {
    op.bat = a.args[i]->bat;
    if (op.bat->type() != DataType::kBool) {
      return Status::TypeError(
          StrFormat("%s: argument %zu must be :bit", a.ins->FullName().c_str(), i));
    }
    return op;
  }
  const Value& v = a.args[i]->scalar;
  if (v.type() != DataType::kBool) {
    return Status::TypeError(
        StrFormat("%s: argument %zu must be :bit", a.ins->FullName().c_str(), i));
  }
  op.scalar = v.AsBool();
  return op;
}

enum class BoolOp { kAnd, kOr };

/// batcalc.and / batcalc.or over :bit BATs with scalar broadcast.
/// NULL semantics follow SQL three-valued logic.
Status BatBoolOp(BoolOp op, KernelArgs& a) {
  STETHO_RETURN_IF_ERROR(ExpectArity(a, 2, 1));
  STETHO_ASSIGN_OR_RETURN(BoolOperand lhs, MakeBoolOperand(a, 0));
  STETHO_ASSIGN_OR_RETURN(BoolOperand rhs, MakeBoolOperand(a, 1));
  if (!lhs.bat && !rhs.bat) {
    return Status::TypeError(a.ins->FullName() + ": needs at least one BAT");
  }
  if (lhs.bat && rhs.bat && lhs.bat->size() != rhs.bat->size()) {
    return Status::InvalidArgument(a.ins->FullName() + ": BAT size mismatch");
  }
  size_t n = lhs.bat ? lhs.bat->size() : rhs.bat->size();
  ColumnPtr out = Column::Make(DataType::kBool);
  out->Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    bool ln = lhs.IsNull(i);
    bool rn = rhs.IsNull(i);
    bool lv = ln ? false : lhs.At(i);
    bool rv = rn ? false : rhs.At(i);
    if (op == BoolOp::kAnd) {
      if ((!ln && !lv) || (!rn && !rv)) {
        out->AppendBool(false);
      } else if (ln || rn) {
        out->AppendNull();
      } else {
        out->AppendBool(true);
      }
    } else {
      if ((!ln && lv) || (!rn && rv)) {
        out->AppendBool(true);
      } else if (ln || rn) {
        out->AppendNull();
      } else {
        out->AppendBool(false);
      }
    }
  }
  *a.results[0] = RegisterValue::Bat(std::move(out));
  return Status::OK();
}

/// batcalc.not(b) :bat[:bit].
Status BatNot(KernelArgs& a) {
  STETHO_RETURN_IF_ERROR(ExpectArity(a, 1, 1));
  STETHO_ASSIGN_OR_RETURN(BoolOperand v, MakeBoolOperand(a, 0));
  if (!v.bat) return Status::TypeError("batcalc.not: needs a BAT");
  size_t n = v.bat->size();
  ColumnPtr out = Column::Make(DataType::kBool);
  out->Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (v.IsNull(i)) {
      out->AppendNull();
    } else {
      out->AppendBool(!v.At(i));
    }
  }
  *a.results[0] = RegisterValue::Bat(std::move(out));
  return Status::OK();
}

/// batcalc.ifthenelse(mask, then, else) :bat — per-row conditional with
/// scalar broadcast on the value operands (SQL CASE WHEN).
Status BatIfThenElse(KernelArgs& a) {
  STETHO_RETURN_IF_ERROR(ExpectArity(a, 3, 1));
  STETHO_ASSIGN_OR_RETURN(ColumnPtr mask, ArgBat(a, 0));
  if (mask->type() != DataType::kBool) {
    return Status::TypeError("batcalc.ifthenelse: mask must be :bit");
  }
  size_t n = mask->size();
  auto value_at = [&](size_t arg, size_t i) -> Value {
    if (a.args[arg]->is_bat()) return a.args[arg]->bat->GetValue(i);
    return a.args[arg]->scalar;
  };
  for (size_t arg = 1; arg <= 2; ++arg) {
    if (a.args[arg]->is_bat() && a.args[arg]->bat->size() != n) {
      return Status::InvalidArgument("batcalc.ifthenelse: operand size mismatch");
    }
  }
  // Result element type: prefer the then-branch's type, widening to double
  // when either branch is double.
  auto branch_type = [&](size_t arg) -> DataType {
    if (a.args[arg]->is_bat()) return a.args[arg]->bat->type();
    return a.args[arg]->scalar.type();
  };
  DataType t1 = branch_type(1);
  DataType t2 = branch_type(2);
  DataType out_type = t1;
  if (t1 == DataType::kNull) out_type = t2;
  if (t1 == DataType::kDouble || t2 == DataType::kDouble) {
    out_type = DataType::kDouble;
  }
  if (out_type == DataType::kNull) out_type = DataType::kInt64;
  ColumnPtr out = Column::Make(out_type);
  out->Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (mask->IsNull(i)) {
      out->AppendNull();
      continue;
    }
    Value v = mask->BoolAt(i) ? value_at(1, i) : value_at(2, i);
    STETHO_RETURN_IF_ERROR(out->AppendValue(v));
  }
  *a.results[0] = RegisterValue::Bat(std::move(out));
  return Status::OK();
}

void TransferIfthenelse(const TransferContext& ctx,
                        std::vector<AbstractValue>* r) {
  if (r->size() != 1) return;
  AbstractValue& out = (*r)[0];
  const AbstractValue& t = Arg(ctx, 1);
  const AbstractValue& e = Arg(ctx, 2);
  if (t.elem == DataType::kDouble || e.elem == DataType::kDouble) {
    out.elem = DataType::kDouble;  // either branch widens the result
  } else if (t.elem_known() && e.elem_known()) {
    out.elem = t.elem;
  }
  out.nullable = PropagatedNullable(ctx);
  out.card = ZipCard(ctx);
}

/// calc.and / calc.or / calc.not on scalar :bit values.
Status CalcBoolOp(BoolOp op, KernelArgs& a) {
  STETHO_RETURN_IF_ERROR(ExpectArity(a, 2, 1));
  STETHO_ASSIGN_OR_RETURN(Value x, ArgScalar(a, 0));
  STETHO_ASSIGN_OR_RETURN(Value y, ArgScalar(a, 1));
  auto known_false = [](const Value& v) {
    return !v.is_null() && v.type() == DataType::kBool && !v.AsBool();
  };
  auto known_true = [](const Value& v) {
    return !v.is_null() && v.type() == DataType::kBool && v.AsBool();
  };
  if (op == BoolOp::kAnd) {
    if (known_false(x) || known_false(y)) {
      *a.results[0] = RegisterValue::Scalar(Value::Bool(false));
    } else if (x.is_null() || y.is_null()) {
      *a.results[0] = RegisterValue::Scalar(Value::Null());
    } else {
      *a.results[0] = RegisterValue::Scalar(Value::Bool(x.AsBool() && y.AsBool()));
    }
  } else {
    if (known_true(x) || known_true(y)) {
      *a.results[0] = RegisterValue::Scalar(Value::Bool(true));
    } else if (x.is_null() || y.is_null()) {
      *a.results[0] = RegisterValue::Scalar(Value::Null());
    } else {
      *a.results[0] = RegisterValue::Scalar(Value::Bool(x.AsBool() || y.AsBool()));
    }
  }
  return Status::OK();
}

Status CalcNot(KernelArgs& a) {
  STETHO_RETURN_IF_ERROR(ExpectArity(a, 1, 1));
  STETHO_ASSIGN_OR_RETURN(Value x, ArgScalar(a, 0));
  if (x.is_null()) {
    *a.results[0] = RegisterValue::Scalar(Value::Null());
  } else if (x.type() != DataType::kBool) {
    return Status::TypeError("calc.not: argument must be :bit");
  } else {
    *a.results[0] = RegisterValue::Scalar(Value::Bool(!x.AsBool()));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// language / io / debug modules.
// ---------------------------------------------------------------------------

/// language.dataflow() — marker inserted by the dataflow optimizer; no-op at
/// run time (the scheduler parallelizes the whole plan).
Status LanguageDataflow(KernelArgs& a) {
  (void)a;
  return Status::OK();
}

/// language.pass(x) — explicit end-of-lifetime marker; no-op (the
/// interpreter's reference counting frees registers).
Status LanguagePass(KernelArgs& a) {
  (void)a;
  return Status::OK();
}

/// io.print(v...) — appends each argument as an unnamed result column.
Status IoPrint(KernelArgs& a) {
  if (!a.results.empty()) {
    return Status::InvalidArgument("io.print returns nothing");
  }
  for (size_t i = 0; i < a.args.size(); ++i) {
    ResultColumn rc;
    rc.name = StrFormat("column_%zu", i);
    rc.order = ResultOrderKey(a.ins->pc, i);
    if (a.args[i]->is_bat()) {
      rc.column = a.args[i]->bat;
    } else {
      rc.is_scalar = true;
      rc.scalar = a.args[i]->scalar;
    }
    a.ctx->AddResult(std::move(rc));
  }
  return Status::OK();
}

/// debug.sleep(usec) — blocks the worker for `usec` microseconds. Used to
/// synthesize long-running instructions in tests and benchmarks.
Status DebugSleep(KernelArgs& a) {
  STETHO_RETURN_IF_ERROR(ExpectArity(a, 1, 0));
  STETHO_ASSIGN_OR_RETURN(int64_t usec, ArgInt(a, 0));
  a.ctx->clock()->SleepMicros(usec);
  return Status::OK();
}

/// debug.spin(iterations) :lng — burns CPU deterministically; returns a
/// checksum so the optimizer cannot remove it.
Status DebugSpin(KernelArgs& a) {
  STETHO_RETURN_IF_ERROR(ExpectArity(a, 1, 1));
  STETHO_ASSIGN_OR_RETURN(int64_t iters, ArgInt(a, 0));
  // Unsigned: the checksum wraps by design, which signed overflow may not.
  volatile uint64_t acc = 0;
  for (int64_t i = 0; i < iters; ++i) {
    acc = acc + static_cast<uint64_t>(i) * 2654435761ULL;
  }
  *a.results[0] =
      RegisterValue::Scalar(Value::Int(static_cast<int64_t>(acc)));
  return Status::OK();
}

}  // namespace

void RegisterCoreKernels(ModuleRegistry* r) {
  // sql: catalog access (side-effect free: tables are immutable) and the
  // result sink.
  STETHO_CHECK_REGISTER(r->Register(
      "sql", "mvc", SqlMvc,
      {.results = {kScalar},
       .transfer = TransferMvc,
       .cost_factor = analysis::kViewCost}));
  STETHO_CHECK_REGISTER(r->Register(
      "sql", "tid", SqlTid,
      {.args = {kScalar, kScalar, kScalar},
       .results = {kBat},
       .arg_elem = {analysis::kAnyElem, DataType::kString, DataType::kString},
       .transfer = TransferTid,
       .exact_capacity = true,
       .cost_factor = analysis::kViewCost}));
  STETHO_CHECK_REGISTER(r->Register(
      "sql", "bind", SqlBind,
      {.args = {kScalar, kScalar, kScalar, kScalar, kScalar},
       .results = {kBat},
       .arg_elem = {analysis::kAnyElem, DataType::kString, DataType::kString,
                    DataType::kString, analysis::kAnyElem},
       .exact_capacity = true,
       .cost_factor = analysis::kViewCost}));
  STETHO_CHECK_REGISTER(r->Register(
      "sql", "resultSet", SqlResultSet,
      {.args = {kScalar, kAny},
       .is_sink = true,
       .side_effect_free = false,
       .arg_elem = {DataType::kString, analysis::kAnyElem},
       .cost_factor = analysis::kViewCost}));

  // bat / mat: BAT bookkeeping and mergetable.
  STETHO_CHECK_REGISTER(r->Register(
      "bat", "mirror", BatMirror,
      {.args = {kBat},
       .results = {kBat},
       .transfer = TransferMirror,
       .exact_capacity = true,
       .cost_factor = analysis::kViewCost}));
  STETHO_CHECK_REGISTER(r->Register(
      "bat", "partition", BatPartition,
      {.args = {kBat, kScalar, kScalar},
       .results = {kBat},
       .transfer = TransferPartition,
       .exact_capacity = true,
       .cost_factor = analysis::kViewCost}));
  STETHO_CHECK_REGISTER(r->Register(
      "bat", "densebat", BatDense,
      {.args = {kScalar},
       .results = {kBat},
       .transfer = TransferDensebat,
       .exact_capacity = true,
       .cost_factor = analysis::kViewCost}));
  STETHO_CHECK_REGISTER(r->Register(
      "bat", "append", BatAppend,
      {.args = {kBat, kBat},
       .results = {kBat},
       .transfer = TransferAppend,
       .cost_factor = analysis::kViewCost}));
  STETHO_CHECK_REGISTER(r->Register(
      "mat", "pack", MatPack,
      {.results = {kBat},
       .variadic = true,
       .min_args = 1,
       .variadic_kind = kBat,
       .transfer = TransferPack,
       .exact_capacity = true}));

  // calc / batcalc: scalar and vectorized arithmetic and comparisons.
  const struct {
    const char* name;
    BinOp op;
    AbstractTransferFn transfer;
  } kBinOps[] = {
      {"add", BinOp::kAdd, TransferArith<false>},
      {"sub", BinOp::kSub, TransferArith<false>},
      {"mul", BinOp::kMul, TransferArith<false>},
      {"div", BinOp::kDiv, TransferArith<true>},
      {"eq", BinOp::kEq, TransferCompare},
      {"ne", BinOp::kNe, TransferCompare},
      {"lt", BinOp::kLt, TransferCompare},
      {"le", BinOp::kLe, TransferCompare},
      {"gt", BinOp::kGt, TransferCompare},
      {"ge", BinOp::kGe, TransferCompare},
  };
  for (const auto& e : kBinOps) {
    BinOp op = e.op;
    STETHO_CHECK_REGISTER(r->Register(
        "calc", e.name, [op](KernelArgs& a) { return CalcBinOp(op, a); },
        {.args = {kScalar, kScalar},
         .results = {kScalar},
         .transfer = e.transfer}));
    STETHO_CHECK_REGISTER(r->Register(
        "batcalc", e.name, [op](KernelArgs& a) { return BatBinOp(op, a); },
        {.args = {kAny, kAny},
         .results = {kBat},
         .needs_bat_arg = true,
         .equal_card_args = {{0, 1}},
         .transfer = e.transfer,
         .exact_capacity = true}));
  }
  const struct {
    const char* name;
    BoolOp op;
  } kBoolOps[] = {{"and", BoolOp::kAnd}, {"or", BoolOp::kOr}};
  for (const auto& e : kBoolOps) {
    BoolOp op = e.op;
    STETHO_CHECK_REGISTER(r->Register(
        "calc", e.name, [op](KernelArgs& a) { return CalcBoolOp(op, a); },
        {.args = {kScalar, kScalar},
         .results = {kScalar},
         .arg_elem = {DataType::kBool, DataType::kBool},
         .transfer = TransferCompare}));
    STETHO_CHECK_REGISTER(r->Register(
        "batcalc", e.name, [op](KernelArgs& a) { return BatBoolOp(op, a); },
        {.args = {kAny, kAny},
         .results = {kBat},
         .needs_bat_arg = true,
         .arg_elem = {DataType::kBool, DataType::kBool},
         .equal_card_args = {{0, 1}},
         .transfer = TransferCompare,
         .exact_capacity = true}));
  }
  STETHO_CHECK_REGISTER(r->Register(
      "calc", "not", CalcNot,
      {.args = {kScalar},
       .results = {kScalar},
       .arg_elem = {DataType::kBool},
       .transfer = TransferCompare}));
  STETHO_CHECK_REGISTER(r->Register(
      "batcalc", "not", BatNot,
      {.args = {kBat},
       .results = {kBat},
       .arg_elem = {DataType::kBool},
       .transfer = TransferCompare,
       .exact_capacity = true}));
  const struct {
    const char* name;
    DataType to;
    AbstractTransferFn transfer;
  } kCasts[] = {
      {"lng", DataType::kInt64, TransferCast<DataType::kInt64>},
      {"dbl", DataType::kDouble, TransferCast<DataType::kDouble>},
      {"str", DataType::kString, TransferCast<DataType::kString>},
  };
  for (const auto& e : kCasts) {
    DataType to = e.to;
    STETHO_CHECK_REGISTER(r->Register(
        "calc", e.name, [to](KernelArgs& a) { return CalcCast(to, a); },
        {.args = {kScalar}, .results = {kScalar}, .transfer = e.transfer}));
  }
  STETHO_CHECK_REGISTER(r->Register(
      "batcalc", "ifthenelse", BatIfThenElse,
      {.args = {kBat, kAny, kAny},
       .results = {kBat},
       .arg_elem = {DataType::kBool, analysis::kAnyElem, analysis::kAnyElem},
       .equal_card_args = {{0, 1}, {0, 2}},
       .transfer = TransferIfthenelse,
       .exact_capacity = true}));

  // language / io / debug: administrative and effectful.
  STETHO_CHECK_REGISTER(r->Register(
      "language", "dataflow", LanguageDataflow,
      {.side_effect_free = false, .cost_factor = analysis::kViewCost}));
  STETHO_CHECK_REGISTER(r->Register(
      "language", "pass", LanguagePass,
      {.args = {kAny},
       .side_effect_free = false,
       .cost_factor = analysis::kViewCost}));
  STETHO_CHECK_REGISTER(r->Register(
      "io", "print", IoPrint,
      {.variadic = true, .is_sink = true, .side_effect_free = false}));
  STETHO_CHECK_REGISTER(r->Register(
      "debug", "sleep", DebugSleep,
      {.args = {kScalar}, .side_effect_free = false}));
  // Effectful so that dead-code elimination keeps it.
  STETHO_CHECK_REGISTER(r->Register(
      "debug", "spin", DebugSpin,
      {.args = {kScalar}, .results = {kScalar}, .side_effect_free = false}));
}

}  // namespace stetho::engine
