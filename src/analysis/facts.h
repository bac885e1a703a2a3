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

/// The facts derived from one plan and trace, each computed on first use
/// and then shared by every reader:
///  - the abstract interpreter's per-pc facts, kernels resolved
///    (AnalyzeProgram), and the MemoryReport built on them (AnalyzeMemory);
///  - the plan's def-use index (Program::BuildDependencies), which the
///    memory report and the schedule are built on;
///  - with a trace, its TraceIndex and, with a plan too, the happens-before
///    ScheduleReport (AnalyzeSchedule).
/// Runner::Run(ctx) builds one per lint. optimizer::Pipeline carries one
/// across its passes: after a pass rewrites the plan, the pipeline says how
/// (Permute, Insert or Reset) before anything reads the facts again. Both
/// inputs are borrowed and must stay alive; calling a getter whose input is
/// null is a programming error.
class Facts {
 public:
  Facts(const mal::Program* program,
        const std::vector<profiler::TraceEvent>* trace);
  Facts(const Facts&) = delete;
  Facts& operator=(const Facts&) = delete;

  /// One entry per instruction, in program order.
  const std::vector<InstructionFacts>& instructions() const;
  const MemoryReport& memory() const;
  const mal::Dependencies& deps() const;
  const TraceIndex& trace_index() const;
  const ScheduleReport& schedule() const;

  /// --- Carrying the facts across a plan rewrite ---
  /// Each call drops the order-dependent facts (memory report, def-use
  /// index, schedule); the trace index depends on the trace alone and stays.

  /// The plan's instructions were permuted: the one now at pc i was at
  /// order[i]. With every argument defined before its use, an instruction's
  /// absint facts do not depend on the order, so they move with it.
  void Permute(const std::vector<int>& order);
  /// Instructions with no results and no variable arguments were inserted
  /// at the ascending pcs `inserted` (numbered after the insert). They
  /// change no register, so only they are evaluated.
  void Insert(const std::vector<int>& inserted);
  /// The plan was rewritten: every plan fact is rebuilt on next use.
  void Reset();

 private:
  void DropOrderDependent();

  const mal::Program* program_;
  const std::vector<profiler::TraceEvent>* trace_;
  mutable std::optional<std::vector<InstructionFacts>> instructions_;
  mutable std::optional<MemoryReport> memory_;
  mutable std::optional<mal::Dependencies> deps_;
  mutable std::optional<TraceIndex> trace_index_;
  mutable std::optional<ScheduleReport> schedule_;
};

}  // namespace stetho::analysis

#endif  // STETHO_ANALYSIS_FACTS_H_
