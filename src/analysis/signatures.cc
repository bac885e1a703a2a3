#include "analysis/signatures.h"

namespace stetho::analysis {

const char* ValueKindName(ValueKind kind) {
  switch (kind) {
    case ValueKind::kAny:
      return "any";
    case ValueKind::kScalar:
      return "scalar";
    case ValueKind::kBat:
      return "bat";
  }
  return "unknown";
}

bool LooksLikeResultSink(const std::string& module,
                         const std::string& function) {
  if (module == "io") return true;
  auto contains = [&function](const char* needle) {
    return function.find(needle) != std::string::npos;
  };
  return contains("print") || contains("result") || contains("Result") ||
         contains("output") || contains("export");
}

}  // namespace stetho::analysis
