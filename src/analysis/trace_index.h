#ifndef STETHO_ANALYSIS_TRACE_INDEX_H_
#define STETHO_ANALYSIS_TRACE_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "profiler/event.h"

namespace stetho::analysis {

/// One pc's events in a TraceIndex: positions (in emission order) of its
/// first start and first done event, -1 when never seen, plus how many
/// start and done events the trace holds for it.
struct PcEvents {
  int64_t first_start = -1;
  int64_t first_done = -1;
  int starts = 0;
  int dones = 0;

  bool started() const { return first_start >= 0; }
  bool completed() const { return first_done >= 0; }
  /// A done with no start before it: the first pair runs backwards.
  bool inverted() const {
    return completed() && (!started() || first_done < first_start);
  }
  /// More than the one start and one done the trace contract allows.
  bool repeated() const { return starts > 1 || dones > 1; }
};

/// The one index every start/done consumer reads, built once per trace:
///  - the events in emission order, stable-sorted by TraceEvent::event (the
///    profiler's global sequence number, which restores order after a
///    reordering transport);
///  - each pc's first start/done pair and event counts;
///  - the threads, numbered densely in order of first appearance;
///  - the peak number of open pairs (first start seen, first done not yet),
///    counted in emission order.
/// The index borrows the events instead of copying them: the vector must
/// outlive the index and stay unmodified.
class TraceIndex {
 public:
  explicit TraceIndex(const std::vector<profiler::TraceEvent>& events);
  /// A temporary trace would dangle as soon as the constructor returns.
  explicit TraceIndex(std::vector<profiler::TraceEvent>&&) = delete;

  /// Number of events.
  size_t size() const { return order_.size(); }
  /// The `i`-th event in emission order.
  const profiler::TraceEvent& event(size_t i) const {
    return (*events_)[order_[i]];
  }
  /// Dense number of event(i)'s thread: its position in threads().
  size_t thread_slot(size_t i) const { return slot_[i]; }
  /// Distinct thread ids in order of first appearance.
  const std::vector<int>& threads() const { return threads_; }

  /// Per-pc events in ascending pc order. Events with a negative pc are
  /// ordered and numbered but belong to no pc.
  const std::map<int, PcEvents>& pcs() const { return pcs_; }
  /// `pc`'s events; nullptr when the trace has none.
  const PcEvents* Find(int pc) const;

  /// Most pairs open at once, walking the trace in emission order.
  int peak_open() const { return peak_open_; }
  /// Latest first-done time minus earliest first-start time over all pcs;
  /// 0 when nothing both started and finished, or the two disagree.
  int64_t Makespan() const;

 private:
  const std::vector<profiler::TraceEvent>* events_;
  std::vector<size_t> order_;
  std::vector<size_t> slot_;
  std::vector<int> threads_;
  std::map<int, PcEvents> pcs_;
  int peak_open_ = 0;
};

/// One execution interval for ConcurrencyAtStart.
struct ExecInterval {
  /// `done_us` value of an interval that never closes.
  static constexpr int64_t kNeverDone = std::numeric_limits<int64_t>::min();

  int64_t start_us = 0;
  int64_t done_us = kNeverDone;  ///< earlier than start_us: never closes
};

/// How many intervals are open at each interval's start, itself included.
/// One sweep in time order: at equal timestamps starts come before dones,
/// so two instructions meeting at one timestamp count as overlapped (the
/// generous reading a skew detector wants), and equal edges keep input
/// order. Returns one count per interval, in input order. This is the
/// concurrency both profile-store feeds record (ObservationFromTrace and
/// ObservationFromStats).
std::vector<int> ConcurrencyAtStart(
    const std::vector<ExecInterval>& intervals);

}  // namespace stetho::analysis

#endif  // STETHO_ANALYSIS_TRACE_INDEX_H_
