#ifndef STETHO_PROFILER_PROFILER_H_
#define STETHO_PROFILER_PROFILER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "profiler/event.h"
#include "profiler/filter.h"
#include "profiler/sink.h"

namespace stetho::profiler {

/// The MAL profiler (paper §3): intercepts instruction start/done events in
/// the execution engine, applies the active filter, stamps a timestamp and a
/// global sequence number, and fans out to the registered sinks (ring
/// buffer, trace file, UDP stream).
///
/// Thread-safe: worker threads emit concurrently; filter swaps and sink
/// registration may happen while a query runs.
class Profiler {
 public:
  explicit Profiler(Clock* clock) : clock_(clock) {}

  /// Adds a sink. Sinks are shared so the caller can keep inspecting them.
  void AddSink(std::shared_ptr<EventSink> sink);
  /// Removes `sink` if it was added; every other sink stays.
  void RemoveSink(const EventSink* sink);

  /// Replaces the active filter (set remotely by Stethoscope clients).
  void SetFilter(EventFilter filter);
  EventFilter GetFilter() const;

  /// Turns the profiler on/off without losing sinks (off = emit nothing).
  void SetEnabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Emits an instruction event. `event.event` and `event.time_us` are
  /// assigned here; all other fields come from the caller.
  void Emit(TraceEvent event);

  /// Convenience: emits a start event for (pc, thread, stmt). The statement
  /// text is taken by view — the interpreter renders each statement once per
  /// program and passes the interned string here; `TraceEvent.stmt` is only
  /// materialized for events that survive the filter.
  void EmitStart(int pc, int thread, int64_t rss_bytes, std::string_view stmt);
  /// Convenience: emits a done event with the measured duration.
  void EmitDone(int pc, int thread, int64_t usec, int64_t rss_bytes,
                std::string_view stmt);

  /// Total events emitted (post-filter).
  int64_t events_emitted() const { return emitted_.load(std::memory_order_relaxed); }
  /// Total events dropped by the filter.
  int64_t events_filtered() const { return filtered_.load(std::memory_order_relaxed); }

  Clock* clock() const { return clock_; }

 private:
  /// Immutable snapshot of the fan-out configuration. Writers (AddSink /
  /// SetFilter — rare, client-driven) build a fresh snapshot and swap the
  /// pointer under `mu_`; the per-event hot path only copies one shared_ptr
  /// under the lock instead of the whole sink vector and filter.
  struct Dispatch {
    std::vector<std::shared_ptr<EventSink>> sinks;
    EventFilter filter;
  };

  std::shared_ptr<const Dispatch> Snapshot() const;
  void EmitImpl(TraceEvent& event, std::string_view stmt);

  Clock* clock_;
  std::atomic<bool> enabled_{true};
  std::atomic<int64_t> next_event_{0};
  std::atomic<int64_t> emitted_{0};
  std::atomic<int64_t> filtered_{0};

  mutable std::mutex mu_;  // guards dispatch_ (pointer swap only)
  std::mutex stamp_mu_;    // seq number + timestamp advance together
  std::shared_ptr<const Dispatch> dispatch_ = std::make_shared<Dispatch>();
};

}  // namespace stetho::profiler

#endif  // STETHO_PROFILER_PROFILER_H_
