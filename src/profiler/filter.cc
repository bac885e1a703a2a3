#include "profiler/filter.h"

#include "common/string_util.h"

namespace stetho::profiler {

bool EventFilter::Matches(const TraceEvent& event,
                          std::string_view stmt) const {
  if (event.state == EventState::kStart && !pass_start_) return false;
  if (event.state == EventState::kDone && !pass_done_) return false;
  if (event.pc < pc_lo_ || event.pc > pc_hi_) return false;
  if (min_usec_ > 0 && event.state == EventState::kDone &&
      event.usec < min_usec_) {
    return false;
  }
  if (!modules_.empty()) {
    const std::string_view op = OperatorOf(stmt);
    const std::string_view module = op.substr(0, op.find('.'));
    bool hit = false;
    for (const std::string& m : modules_) {
      if (module == m) {
        hit = true;
        break;
      }
    }
    if (!hit) return false;
  }
  return true;
}

std::string EventFilter::Serialize() const {
  std::string out;
  out += StrFormat("start=%d;done=%d;", pass_start_ ? 1 : 0, pass_done_ ? 1 : 0);
  out += StrFormat("min_usec=%lld;", static_cast<long long>(min_usec_));
  out += StrFormat("pc_lo=%d;pc_hi=%d;", pc_lo_, pc_hi_);
  if (!modules_.empty()) {
    out += "modules=" + Join(modules_, ",") + ";";
  }
  return out;
}

Result<EventFilter> EventFilter::Deserialize(const std::string& text) {
  EventFilter filter;
  for (const std::string& piece : SplitAndTrim(text, ';')) {
    size_t eq = piece.find('=');
    if (eq == std::string::npos) {
      return Status::ParseError("filter piece missing '=': " + piece);
    }
    std::string key = piece.substr(0, eq);
    std::string val = piece.substr(eq + 1);
    if (key == "start") {
      STETHO_ASSIGN_OR_RETURN(int64_t v, ParseInt64(val));
      filter.pass_start_ = (v != 0);
    } else if (key == "done") {
      STETHO_ASSIGN_OR_RETURN(int64_t v, ParseInt64(val));
      filter.pass_done_ = (v != 0);
    } else if (key == "min_usec") {
      STETHO_ASSIGN_OR_RETURN(filter.min_usec_, ParseInt64(val));
    } else if (key == "pc_lo") {
      STETHO_ASSIGN_OR_RETURN(int64_t v, ParseInt64(val));
      filter.pc_lo_ = static_cast<int>(v);
    } else if (key == "pc_hi") {
      STETHO_ASSIGN_OR_RETURN(int64_t v, ParseInt64(val));
      filter.pc_hi_ = static_cast<int>(v);
    } else if (key == "modules") {
      filter.modules_ = SplitAndTrim(val, ',');
    } else {
      return Status::ParseError("unknown filter key '" + key + "'");
    }
  }
  return filter;
}

}  // namespace stetho::profiler
