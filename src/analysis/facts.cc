#include "analysis/facts.h"

#include <utility>

namespace stetho::analysis {

Facts::Facts(const mal::Program* program,
             const std::vector<profiler::TraceEvent>* trace)
    : program_(program), trace_(trace) {}

const std::vector<InstructionFacts>& Facts::instructions() const {
  if (!instructions_) AnalyzeProgram(*program_, &instructions_.emplace());
  return *instructions_;
}

const MemoryReport& Facts::memory() const {
  if (!memory_) {
    memory_.emplace(AnalyzeMemory(*program_, instructions(), deps()));
  }
  return *memory_;
}

const mal::Dependencies& Facts::deps() const {
  if (!deps_) deps_.emplace(program_->BuildDependencies());
  return *deps_;
}

const TraceIndex& Facts::trace_index() const {
  if (!trace_index_) trace_index_.emplace(*trace_);
  return *trace_index_;
}

const ScheduleReport& Facts::schedule() const {
  if (!schedule_) {
    schedule_.emplace(AnalyzeSchedule(*program_, deps(), trace_index()));
  }
  return *schedule_;
}

void Facts::Permute(const std::vector<int>& order) {
  if (instructions_) {
    std::vector<InstructionFacts> moved;
    moved.reserve(order.size());
    for (int pc : order) {
      moved.push_back(std::move((*instructions_)[static_cast<size_t>(pc)]));
    }
    *instructions_ = std::move(moved);
  }
  DropOrderDependent();
}

void Facts::Insert(const std::vector<int>& inserted) {
  if (instructions_) {
    std::vector<InstructionFacts> shifted;
    shifted.reserve(program_->size());
    // The inserted instructions read no register, so an empty state
    // evaluates them exactly.
    AbstractState no_registers;
    size_t next_old = 0;
    size_t next_inserted = 0;
    for (const mal::Instruction& ins : program_->instructions()) {
      if (next_inserted < inserted.size() &&
          inserted[next_inserted] == ins.pc) {
        ++next_inserted;
        shifted.push_back(StepInstruction(*program_, ins, &no_registers));
      } else {
        shifted.push_back(std::move((*instructions_)[next_old++]));
      }
    }
    *instructions_ = std::move(shifted);
  }
  DropOrderDependent();
}

void Facts::Reset() {
  instructions_.reset();
  DropOrderDependent();
}

void Facts::DropOrderDependent() {
  memory_.reset();
  deps_.reset();
  schedule_.reset();
}

}  // namespace stetho::analysis
