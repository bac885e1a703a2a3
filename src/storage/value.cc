#include "storage/value.h"

#include <charconv>

#include "common/string_util.h"

namespace stetho::storage {

const char* DataTypeName(DataType type) {
  switch (type) {
    case DataType::kNull:
      return ":any";
    case DataType::kBool:
      return ":bit";
    case DataType::kInt64:
      return ":lng";
    case DataType::kDouble:
      return ":dbl";
    case DataType::kString:
      return ":str";
    case DataType::kOid:
      return ":oid";
    case DataType::kBat:
      return ":bat";
  }
  return ":unknown";
}

Result<double> Value::ToDouble() const {
  switch (type_) {
    case DataType::kBool:
      return AsBool() ? 1.0 : 0.0;
    case DataType::kInt64:
      return static_cast<double>(AsInt());
    case DataType::kDouble:
      return AsDouble();
    default:
      return Status::TypeError(std::string("cannot convert ") +
                               DataTypeName(type_) + " to :dbl");
  }
}

Result<int64_t> Value::ToInt() const {
  switch (type_) {
    case DataType::kBool:
      return static_cast<int64_t>(AsBool() ? 1 : 0);
    case DataType::kInt64:
    case DataType::kOid:
      return std::get<int64_t>(data_);
    default:
      return Status::TypeError(std::string("cannot convert ") +
                               DataTypeName(type_) + " to :lng");
  }
}

std::string Value::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

void Value::AppendTo(std::string* out) const {
  char digits[24];
  switch (type_) {
    case DataType::kNull:
      *out += "NULL";
      return;
    case DataType::kBool:
      *out += AsBool() ? "true" : "false";
      return;
    case DataType::kInt64: {
      const auto [end, ec] = std::to_chars(digits, digits + sizeof(digits),
                                           AsInt());
      out->append(digits, end);
      return;
    }
    case DataType::kDouble:
      *out += StrFormat("%g", AsDouble());
      return;
    case DataType::kString:
      *out += '"';
      AppendEscapedQuoted(AsString(), out);
      *out += '"';
      return;
    case DataType::kOid: {
      const auto [end, ec] = std::to_chars(digits, digits + sizeof(digits),
                                           AsOid());
      out->append(digits, end);
      *out += "@0";
      return;
    }
    case DataType::kBat:
      *out += "<bat>";
      return;
  }
  *out += '?';
}

bool Value::operator==(const Value& other) const {
  return Compare(other) == 0 && type_ == other.type_;
}

int Value::Compare(const Value& other) const {
  if (is_null() && other.is_null()) return 0;
  if (is_null()) return -1;
  if (other.is_null()) return 1;
  // Integral operands (:bit, :lng, :oid) compare exactly as int64_t, so
  // 2^53 and 2^53 + 1 stay distinct; only a :dbl side goes through double.
  auto as_integral = [](const Value& v, int64_t* out) {
    switch (v.type_) {
      case DataType::kBool:
        *out = v.AsBool() ? 1 : 0;
        return true;
      case DataType::kInt64:
      case DataType::kOid:
        *out = std::get<int64_t>(v.data_);
        return true;
      default:
        return false;
    }
  };
  int64_t ia = 0;
  int64_t ib = 0;
  if (as_integral(*this, &ia) && as_integral(other, &ib)) {
    return ia < ib ? -1 : (ia > ib ? 1 : 0);
  }
  auto as_double = [&as_integral](const Value& v, double* out) {
    int64_t i = 0;
    if (as_integral(v, &i)) {
      *out = static_cast<double>(i);
      return true;
    }
    if (v.type_ != DataType::kDouble) return false;
    *out = v.AsDouble();
    return true;
  };
  double a = 0.0;
  double b = 0.0;
  if (as_double(*this, &a) && as_double(other, &b)) {
    if (a < b) return -1;
    if (a > b) return 1;
    return 0;
  }
  if (type_ == DataType::kString && other.type_ == DataType::kString) {
    return AsString().compare(other.AsString()) < 0
               ? -1
               : (AsString() == other.AsString() ? 0 : 1);
  }
  // Incomparable types: order by type tag for a stable total order.
  return static_cast<int>(type_) < static_cast<int>(other.type_) ? -1 : 1;
}

}  // namespace stetho::storage
