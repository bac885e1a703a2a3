#include "profiler/profiler.h"

#include "obs/metrics.h"

namespace stetho::profiler {
namespace {

// Process-wide mirrors of the per-instance emitted/filtered stats, so the
// metrics exposition shows profiler throughput without a Profiler* in hand.
obs::Counter* EmittedCounter() {
  static obs::Counter* counter = obs::Registry::Default()->GetOrCreateCounter(
      "stetho_profiler_events_emitted_total",
      "Profiler events delivered to sinks (post-filter)");
  return counter;
}

obs::Counter* FilteredCounter() {
  static obs::Counter* counter = obs::Registry::Default()->GetOrCreateCounter(
      "stetho_profiler_events_filtered_total",
      "Profiler events suppressed by the active filter");
  return counter;
}

}  // namespace

std::shared_ptr<const Profiler::Dispatch> Profiler::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dispatch_;
}

void Profiler::AddSink(std::shared_ptr<EventSink> sink) {
  std::lock_guard<std::mutex> lock(mu_);
  auto next = std::make_shared<Dispatch>(*dispatch_);
  next->sinks.push_back(std::move(sink));
  dispatch_ = std::move(next);
}

void Profiler::RemoveSink(const EventSink* sink) {
  std::lock_guard<std::mutex> lock(mu_);
  auto next = std::make_shared<Dispatch>(*dispatch_);
  std::erase_if(next->sinks, [sink](const std::shared_ptr<EventSink>& s) {
    return s.get() == sink;
  });
  dispatch_ = std::move(next);
}

void Profiler::SetFilter(EventFilter filter) {
  std::lock_guard<std::mutex> lock(mu_);
  auto next = std::make_shared<Dispatch>(*dispatch_);
  next->filter = std::move(filter);
  dispatch_ = std::move(next);
}

EventFilter Profiler::GetFilter() const { return Snapshot()->filter; }

/// Hot path shared by Emit/EmitStart/EmitDone. `event.stmt` is empty on
/// entry; `stmt` carries the statement text by view and is copied into the
/// event only once it is known to be delivered.
void Profiler::EmitImpl(TraceEvent& event, std::string_view stmt) {
  // Grab the current dispatch snapshot (one shared_ptr copy under the
  // lock); fan-out happens outside it so slow sinks (file IO, UDP) never
  // serialize worker threads against each other more than necessary.
  std::shared_ptr<const Dispatch> dispatch = Snapshot();
  // The filter runs BEFORE stamping: delivered events carry a contiguous
  // sequence (any hole a receiver observes is transport loss — the
  // net::StreamHealth contract), so suppressed events must not consume
  // sequence numbers. The filter reads none of the stamped fields.
  if (!dispatch->filter.Matches(event, stmt)) {
    filtered_.fetch_add(1, std::memory_order_relaxed);
    FilteredCounter()->Increment();
    return;
  }
  {
    // Stamp sequence number and timestamp together: the trace contract
    // (analysis' trace-conformance check) demands timestamps be monotone in
    // event order, which concurrent workers would otherwise violate when one
    // is preempted between the two reads.
    std::lock_guard<std::mutex> lock(stamp_mu_);
    event.event = next_event_.fetch_add(1, std::memory_order_relaxed);
    event.time_us = clock_->NowMicros();
  }
  emitted_.fetch_add(1, std::memory_order_relaxed);
  EmittedCounter()->Increment();
  event.stmt.assign(stmt.data(), stmt.size());
  for (const auto& sink : dispatch->sinks) sink->Consume(event);
}

void Profiler::Emit(TraceEvent event) {
  if (!enabled()) return;
  std::string stmt = std::move(event.stmt);
  event.stmt.clear();
  EmitImpl(event, stmt);
}

void Profiler::EmitStart(int pc, int thread, int64_t rss_bytes,
                         std::string_view stmt) {
  if (!enabled()) return;
  TraceEvent e;
  e.pc = pc;
  e.thread = thread;
  e.state = EventState::kStart;
  e.usec = 0;
  e.rss_bytes = rss_bytes;
  EmitImpl(e, stmt);
}

void Profiler::EmitDone(int pc, int thread, int64_t usec, int64_t rss_bytes,
                        std::string_view stmt) {
  if (!enabled()) return;
  TraceEvent e;
  e.pc = pc;
  e.thread = thread;
  e.state = EventState::kDone;
  e.usec = usec;
  e.rss_bytes = rss_bytes;
  EmitImpl(e, stmt);
}

}  // namespace stetho::profiler
