#ifndef STETHO_MAL_TYPES_H_
#define STETHO_MAL_TYPES_H_

#include <string>

#include "storage/value.h"

namespace stetho::mal {

/// Type of a MAL variable: either a scalar (:lng, :dbl, :str, :bit, :oid,
/// :void) or a BAT over a scalar element type (bat[:lng]...). kNull doubles
/// as :void for result-less statements.
struct MalType {
  storage::DataType base = storage::DataType::kNull;
  bool is_bat = false;

  static MalType Void() { return MalType{storage::DataType::kNull, false}; }
  static MalType Scalar(storage::DataType t) { return MalType{t, false}; }
  static MalType Bat(storage::DataType elem) { return MalType{elem, true}; }

  bool is_void() const { return !is_bat && base == storage::DataType::kNull; }

  /// Renders MAL syntax: ":lng", ":void", "bat[:oid]".
  std::string ToString() const;
  /// Appends ToString() to `out`.
  void AppendTo(std::string* out) const;

  bool operator==(const MalType& other) const {
    return base == other.base && is_bat == other.is_bat;
  }
  bool operator!=(const MalType& other) const { return !(*this == other); }
};

/// Parses ":lng" / "bat[:dbl]" style type syntax; ParseError on malformed
/// input.
stetho::Result<MalType> ParseMalType(const std::string& text);

}  // namespace stetho::mal

#endif  // STETHO_MAL_TYPES_H_
