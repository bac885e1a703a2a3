#ifndef STETHO_ANALYSIS_FACTS_H_
#define STETHO_ANALYSIS_FACTS_H_

#include <optional>
#include <vector>

#include "analysis/absint.h"
#include "analysis/hb.h"
#include "analysis/liveness.h"
#include "analysis/trace_index.h"
#include "mal/program.h"
#include "profiler/event.h"

namespace stetho::analysis {

/// The facts one lint derives from its plan and trace, each computed on
/// first use and then shared by every check that reads it:
///  - the abstract interpreter's per-pc facts, signatures resolved
///    (AnalyzeProgram), and the MemoryReport built on them (AnalyzeMemory);
///  - the plan's dependency lists (Program::BuildDependencies);
///  - with a trace, its TraceIndex and, with a plan too, the happens-before
///    ScheduleReport (AnalyzeSchedule).
/// Runner::Run builds one per call and drops it when the call returns, so
/// facts never outlive the plan state they describe. Both inputs are
/// borrowed and must stay alive and unmodified while the Facts is used;
/// calling a getter whose input is null is a programming error.
class Facts {
 public:
  Facts(const mal::Program* program,
        const std::vector<profiler::TraceEvent>* trace);
  Facts(const Facts&) = delete;
  Facts& operator=(const Facts&) = delete;

  /// One entry per instruction, in program order.
  const std::vector<InstructionFacts>& instructions() const;
  const MemoryReport& memory() const;
  const std::vector<std::vector<int>>& deps() const;
  const TraceIndex& trace_index() const;
  const ScheduleReport& schedule() const;

 private:
  const mal::Program* program_;
  const std::vector<profiler::TraceEvent>* trace_;
  mutable std::optional<std::vector<InstructionFacts>> instructions_;
  mutable std::optional<MemoryReport> memory_;
  mutable std::optional<std::vector<std::vector<int>>> deps_;
  mutable std::optional<TraceIndex> trace_index_;
  mutable std::optional<ScheduleReport> schedule_;
};

}  // namespace stetho::analysis

#endif  // STETHO_ANALYSIS_FACTS_H_
