#ifndef STETHO_STORAGE_VALUE_H_
#define STETHO_STORAGE_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

#include "common/status.h"

namespace stetho::storage {

/// Physical scalar/column element types understood by the engine.
enum class DataType {
  kNull = 0,  ///< typeless NULL / uninitialized
  kBool,
  kInt64,
  kDouble,
  kString,
  kOid,  ///< row identifier (position); MonetDB's `oid`
  kBat,  ///< reference to a column (BAT); only valid for MAL variables
};

/// Returns the MAL-style type name, e.g. ":lng", ":dbl", ":str", ":bat".
const char* DataTypeName(DataType type);

/// A dynamically-typed scalar. Used for SQL literals, MAL constant operands,
/// and element access into columns. Columns themselves store unboxed arrays;
/// Value only appears on scalar paths.
class Value {
 public:
  /// Constructs a NULL value.
  Value() : type_(DataType::kNull) {}

  static Value Null() { return Value(); }
  static Value Bool(bool v) {
    Value out;
    out.type_ = DataType::kBool;
    out.data_ = v;
    return out;
  }
  static Value Int(int64_t v) {
    Value out;
    out.type_ = DataType::kInt64;
    out.data_ = v;
    return out;
  }
  static Value Double(double v) {
    Value out;
    out.type_ = DataType::kDouble;
    out.data_ = v;
    return out;
  }
  static Value String(std::string v) {
    Value out;
    out.type_ = DataType::kString;
    out.data_ = std::move(v);
    return out;
  }
  static Value Oid(uint64_t v) {
    Value out;
    out.type_ = DataType::kOid;
    out.data_ = static_cast<int64_t>(v);
    return out;
  }

  DataType type() const { return type_; }
  bool is_null() const { return type_ == DataType::kNull; }

  /// Typed accessors; precondition: the value holds that type.
  bool AsBool() const { return std::get<bool>(data_); }
  int64_t AsInt() const { return std::get<int64_t>(data_); }
  double AsDouble() const { return std::get<double>(data_); }
  const std::string& AsString() const { return std::get<std::string>(data_); }
  uint64_t AsOid() const { return static_cast<uint64_t>(std::get<int64_t>(data_)); }

  /// Numeric widening view: int64/double/bool as double; error otherwise.
  Result<double> ToDouble() const;
  /// int64/bool as int64; error otherwise (doubles do not silently truncate).
  Result<int64_t> ToInt() const;

  /// Renders a literal form: NULL, true, 42, 3.14, "text", 7@0 (oid).
  std::string ToString() const;
  /// Appends ToString() to `out`.
  void AppendTo(std::string* out) const;

  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }

  /// Total order for sorting; NULLs sort first. Integral operands (bool,
  /// int64, oid) compare exactly as int64_t; a comparison with a double
  /// side compares by double value. Returns <0, 0, >0.
  int Compare(const Value& other) const;

 private:
  DataType type_;
  std::variant<std::monostate, bool, int64_t, double, std::string> data_;
};

}  // namespace stetho::storage

#endif  // STETHO_STORAGE_VALUE_H_
