#ifndef STETHO_SCOPE_TRACE_H_
#define STETHO_SCOPE_TRACE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "profiler/event.h"

namespace stetho::scope {

/// Reads an entire trace file (one FormatTraceLine event per line; blank
/// lines ignored). Used by offline mode, which "needs access to a
/// preexisting dot file and trace file".
Result<std::vector<profiler::TraceEvent>> ReadTraceFile(
    const std::string& path);

}  // namespace stetho::scope

#endif  // STETHO_SCOPE_TRACE_H_
