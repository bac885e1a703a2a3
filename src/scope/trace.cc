#include "scope/trace.h"

#include <cstdio>

#include "common/string_util.h"

namespace stetho::scope {

using profiler::TraceEvent;

Result<std::vector<TraceEvent>> ReadTraceFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    return Status::IoError("cannot open trace file '" + path + "'");
  }
  std::string content;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    content.append(buf, n);
  }
  std::fclose(f);

  std::vector<TraceEvent> events;
  for (const std::string& line : Split(content, '\n')) {
    if (Trim(line).empty()) continue;
    STETHO_ASSIGN_OR_RETURN(TraceEvent event, profiler::ParseTraceLine(line));
    events.push_back(std::move(event));
  }
  return events;
}

}  // namespace stetho::scope
