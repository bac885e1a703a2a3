#ifndef STETHO_OBS_SPAN_H_
#define STETHO_OBS_SPAN_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "obs/metrics.h"

namespace stetho::obs {

/// One completed span on the platform's own timeline: a phase
/// (parse/optimize/execute/layout/svg), an optimizer pass, or one kernel
/// execution. `tid` carries the same logical thread id the profiler stamps
/// on trace events (the query-local admission slot), preserving the trace
/// thread contract; `pc` links kernel spans back to the plan instruction.
struct SpanRecord {
  std::string name;    ///< "parse", "pass:dead-code", "algebra.select", ...
  std::string cat;     ///< "phase" | "pass" | "kernel"
  int tid = 0;         ///< logical thread id (query slot; 0 for phases)
  int pc = -1;         ///< plan pc for kernel spans, -1 otherwise
  int64_t start_us = 0;
  int64_t dur_us = 0;
  int64_t seq = 0;     ///< record order, assigned by the tracer

  bool operator==(const SpanRecord& other) const = default;
};

/// Collects spans into a bounded in-memory ring. Disabled by default: a
/// disabled tracer costs one relaxed load per would-be span and records
/// nothing. Thread-safe; worker threads record concurrently.
class Tracer {
 public:
  static constexpr size_t kDefaultCapacity = 1 << 16;

  /// `clock` is the time source for the tracer's lifetime (tests pass a
  /// VirtualClock); nullptr = the steady clock.
  explicit Tracer(Clock* clock = nullptr, size_t capacity = kDefaultCapacity)
      : clock_(clock != nullptr ? clock
                                : static_cast<Clock*>(SteadyClock::Default())),
        capacity_(capacity == 0 ? 1 : capacity) {}

  /// Spans are recorded only while enabled.
  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  Clock* clock() const { return clock_; }

  /// Records a completed span with caller-measured timestamps — the kernel
  /// hot path reuses the interpreter's existing clock reads, so tracing a
  /// kernel costs no extra NowMicros() call. No-op while disabled.
  void RecordComplete(std::string_view name, std::string_view cat, int tid,
                      int pc, int64_t start_us, int64_t dur_us);

  /// Snapshot in record order (oldest first).
  std::vector<SpanRecord> Snapshot() const;
  void Clear();

  size_t size() const;
  /// Total spans ever recorded (including ones evicted from the ring).
  int64_t total_recorded() const {
    return recorded_.load(std::memory_order_relaxed);
  }
  /// Spans evicted by ring overwrite.
  int64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  /// Process-wide shared instance all built-in instrumentation reports to.
  static Tracer* Default();

 private:
  std::atomic<bool> enabled_{false};
  Clock* const clock_;
  const size_t capacity_;

  mutable std::mutex mu_;  // guards ring_ and next_seq_
  std::deque<SpanRecord> ring_;
  int64_t next_seq_ = 0;
  std::atomic<int64_t> recorded_{0};
  std::atomic<int64_t> dropped_{0};
};

/// RAII span: stamps start on construction, records on destruction. When the
/// tracer is disabled (or null) at construction the object holds nothing and
/// the destructor is a no-op — no clock read, no allocation.
class Span {
 public:
  Span(Tracer* tracer, std::string_view name, std::string_view cat,
       int tid = 0, int pc = -1) {
    if (tracer == nullptr || !tracer->enabled()) return;
    tracer_ = tracer;
    name_.assign(name.data(), name.size());
    cat_.assign(cat.data(), cat.size());
    tid_ = tid;
    pc_ = pc;
    start_us_ = tracer->clock()->NowMicros();
  }

  ~Span() {
    if (tracer_ == nullptr) return;
    tracer_->RecordComplete(name_, cat_, tid_, pc_, start_us_,
                            tracer_->clock()->NowMicros() - start_us_);
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_ = nullptr;
  std::string name_;
  std::string cat_;
  int tid_ = 0;
  int pc_ = -1;
  int64_t start_us_ = 0;
};

}  // namespace stetho::obs

#endif  // STETHO_OBS_SPAN_H_
