#include "mal/types.h"

#include "common/string_util.h"

namespace stetho::mal {

using storage::DataType;

std::string MalType::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

void MalType::AppendTo(std::string* out) const {
  const char* name;
  switch (base) {
    case DataType::kNull:
      name = ":void";
      break;
    case DataType::kBool:
      name = ":bit";
      break;
    case DataType::kInt64:
      name = ":lng";
      break;
    case DataType::kDouble:
      name = ":dbl";
      break;
    case DataType::kString:
      name = ":str";
      break;
    case DataType::kOid:
      name = ":oid";
      break;
    default:
      name = ":any";
      break;
  }
  if (!is_bat) {
    *out += name;
    return;
  }
  *out += ":bat[";
  *out += name;
  *out += ']';
}

Result<MalType> ParseMalType(const std::string& text) {
  std::string t = Trim(text);
  bool is_bat = false;
  if (StartsWith(t, ":bat[") && EndsWith(t, "]")) {
    is_bat = true;
    t = t.substr(5, t.size() - 6);
  } else if (StartsWith(t, "bat[") && EndsWith(t, "]")) {
    is_bat = true;
    t = t.substr(4, t.size() - 5);
  }
  DataType base;
  if (t == ":void" || t == ":any") {
    base = DataType::kNull;
  } else if (t == ":bit") {
    base = DataType::kBool;
  } else if (t == ":lng" || t == ":int") {
    base = DataType::kInt64;
  } else if (t == ":dbl" || t == ":flt") {
    base = DataType::kDouble;
  } else if (t == ":str") {
    base = DataType::kString;
  } else if (t == ":oid") {
    base = DataType::kOid;
  } else {
    return Status::ParseError("unknown MAL type '" + text + "'");
  }
  return MalType{base, is_bat};
}

}  // namespace stetho::mal
