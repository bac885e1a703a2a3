#include "analysis/trace_index.h"

#include <algorithm>
#include <numeric>
#include <tuple>

namespace stetho::analysis {

using profiler::EventState;
using profiler::TraceEvent;

TraceIndex::TraceIndex(const std::vector<TraceEvent>& events)
    : events_(&events), order_(events.size()) {
  std::iota(order_.begin(), order_.end(), size_t{0});
  std::stable_sort(order_.begin(), order_.end(),
                   [&events](size_t a, size_t b) {
                     return events[a].event < events[b].event;
                   });

  slot_.reserve(order_.size());
  std::map<int, size_t> slot_of;
  int open = 0;
  for (size_t i = 0; i < order_.size(); ++i) {
    const TraceEvent& e = event(i);
    auto [it, fresh] = slot_of.emplace(e.thread, threads_.size());
    if (fresh) threads_.push_back(e.thread);
    slot_.push_back(it->second);
    if (e.pc < 0) continue;

    PcEvents& pc = pcs_[e.pc];
    const auto position = static_cast<int64_t>(i);
    if (e.state == EventState::kStart) {
      if (pc.starts++ == 0) {
        pc.first_start = position;
        peak_open_ = std::max(peak_open_, ++open);
      }
    } else if (pc.dones++ == 0) {
      pc.first_done = position;
      if (pc.started()) --open;
    }
  }
}

const PcEvents* TraceIndex::Find(int pc) const {
  auto it = pcs_.find(pc);
  return it != pcs_.end() ? &it->second : nullptr;
}

int64_t TraceIndex::Makespan() const {
  bool any_start = false;
  bool any_done = false;
  int64_t first = 0;
  int64_t last = 0;
  for (const auto& [pc, events] : pcs_) {
    if (events.started()) {
      const int64_t t = event(static_cast<size_t>(events.first_start)).time_us;
      first = any_start ? std::min(first, t) : t;
      any_start = true;
    }
    if (events.completed()) {
      const int64_t t = event(static_cast<size_t>(events.first_done)).time_us;
      last = any_done ? std::max(last, t) : t;
      any_done = true;
    }
  }
  return any_start && any_done && last >= first ? last - first : 0;
}

std::vector<int> ConcurrencyAtStart(
    const std::vector<ExecInterval>& intervals) {
  // (time, 0 = start / 1 = done, interval): tuple order is the sweep order.
  std::vector<std::tuple<int64_t, int, size_t>> edges;
  edges.reserve(2 * intervals.size());
  for (size_t i = 0; i < intervals.size(); ++i) {
    edges.emplace_back(intervals[i].start_us, 0, i);
    if (intervals[i].done_us >= intervals[i].start_us) {
      edges.emplace_back(intervals[i].done_us, 1, i);
    }
  }
  std::sort(edges.begin(), edges.end());
  std::vector<int> concurrency(intervals.size(), 0);
  int open = 0;
  for (const auto& [time_us, kind, i] : edges) {
    if (kind == 0) {
      concurrency[i] = ++open;
    } else {
      --open;
    }
  }
  return concurrency;
}

}  // namespace stetho::analysis
