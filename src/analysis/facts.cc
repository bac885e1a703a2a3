#include "analysis/facts.h"

namespace stetho::analysis {

Facts::Facts(const mal::Program* program,
             const std::vector<profiler::TraceEvent>* trace)
    : program_(program), trace_(trace) {}

const std::vector<InstructionFacts>& Facts::instructions() const {
  if (!instructions_) AnalyzeProgram(*program_, &instructions_.emplace());
  return *instructions_;
}

const MemoryReport& Facts::memory() const {
  if (!memory_) memory_.emplace(AnalyzeMemory(*program_, instructions()));
  return *memory_;
}

const std::vector<std::vector<int>>& Facts::deps() const {
  if (!deps_) deps_.emplace(program_->BuildDependencies());
  return *deps_;
}

const TraceIndex& Facts::trace_index() const {
  if (!trace_index_) trace_index_.emplace(*trace_);
  return *trace_index_;
}

const ScheduleReport& Facts::schedule() const {
  if (!schedule_) schedule_.emplace(AnalyzeSchedule(*program_, trace_index()));
  return *schedule_;
}

}  // namespace stetho::analysis
