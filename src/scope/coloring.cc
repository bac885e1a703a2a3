#include "scope/coloring.h"

#include <algorithm>
#include <map>

#include "common/saturating.h"

namespace stetho::scope {

using profiler::EventState;
using profiler::TraceEvent;

std::vector<ColorDecision> PairSequenceColoring(
    const std::vector<TraceEvent>& buffer) {
  std::vector<ColorDecision> decisions;
  size_t i = 0;
  while (i < buffer.size()) {
    const TraceEvent& e = buffer[i];
    if (e.state == EventState::kStart) {
      // Adjacent start/done pair for the same pc: cheapest instructions,
      // not colored.
      if (i + 1 < buffer.size() &&
          buffer[i + 1].state == EventState::kDone &&
          buffer[i + 1].pc == e.pc) {
        i += 2;
        continue;
      }
      // A start with nothing after it is the event currently being
      // produced — not yet judged.
      if (i + 1 >= buffer.size()) {
        ++i;
        continue;
      }
      // Unpaired start with later instructions: long-running — RED.
      decisions.push_back({e.pc, viz::Color::Red()});
      ++i;
      continue;
    }
    // A done that was not consumed as part of an adjacent pair closes a
    // long-running instruction — GREEN.
    decisions.push_back({e.pc, viz::Color::Green()});
    ++i;
  }
  return decisions;
}

void PairSequenceTracker::Observe(const TraceEvent& event) {
  // Mirror of the rescan's cursor rules. Only a start can be pending: it
  // is judged by its immediate successor — a matching done consumes the
  // pair silently, anything else proves it long-running (RED). A done
  // never waits: unconsumed dones are GREEN immediately, and a trailing
  // done is judged identically by the rescan.
  if (has_pending_) {
    has_pending_ = false;
    if (event.state == EventState::kDone && event.pc == pending_.pc) {
      return;  // adjacent pair: cheapest instructions, not colored
    }
    decisions_.push_back({pending_.pc, viz::Color::Red()});
  }
  if (event.state == EventState::kStart) {
    pending_ = event;
    has_pending_ = true;
    return;
  }
  decisions_.push_back({event.pc, viz::Color::Green()});
}

std::vector<ColorDecision> PairSequenceTracker::TakeNew() {
  std::vector<ColorDecision> fresh(decisions_.begin() + taken_,
                                   decisions_.end());
  taken_ = decisions_.size();
  return fresh;
}

void PairSequenceTracker::Reset() {
  has_pending_ = false;
  decisions_.clear();
  taken_ = 0;
}

std::vector<ColorDecision> ThresholdColoring(
    const std::vector<TraceEvent>& buffer, int64_t threshold_us) {
  std::vector<ColorDecision> decisions;
  std::map<int, int> running;  // pc -> outstanding start count
  for (const TraceEvent& e : buffer) {
    if (e.state == EventState::kStart) {
      ++running[e.pc];
      continue;
    }
    auto it = running.find(e.pc);
    if (it != running.end() && it->second > 0) --it->second;
    if (e.usec >= threshold_us) {
      decisions.push_back({e.pc, viz::Color::Red()});
    }
  }
  for (const auto& [pc, count] : running) {
    if (count > 0) decisions.push_back({pc, viz::Color::Orange()});
  }
  return decisions;
}

std::vector<ColorDecision> GradientColoring(
    const std::vector<TraceEvent>& buffer) {
  // Total completed time per pc (mitosis clones share a pc only if the
  // plan reused it; normally pcs are unique, so this is per instruction).
  std::map<int, int64_t> usec_by_pc;
  for (const TraceEvent& e : buffer) {
    if (e.state == EventState::kDone) {
      usec_by_pc[e.pc] = SaturatingAdd(usec_by_pc[e.pc], e.usec);
    }
  }
  int64_t max_usec = 0;
  for (const auto& [pc, usec] : usec_by_pc) {
    max_usec = std::max(max_usec, usec);
  }
  std::vector<ColorDecision> decisions;
  for (const auto& [pc, usec] : usec_by_pc) {
    double t = max_usec > 0 ? static_cast<double>(usec) /
                                  static_cast<double>(max_usec)
                            : 0.0;
    decisions.push_back(
        {pc, viz::Color::Lerp(viz::Color::White(), viz::Color::Red(), t)});
  }
  return decisions;
}

}  // namespace stetho::scope
