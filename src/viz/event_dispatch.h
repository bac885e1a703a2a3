#ifndef STETHO_VIZ_EVENT_DISPATCH_H_
#define STETHO_VIZ_EVENT_DISPATCH_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/clock.h"

namespace stetho::viz {

/// Statistics about render pacing, used by the C1 benchmark (the paper's
/// "delay of up-to 150ms between rendering of consecutive nodes").
struct DispatchStats {
  int64_t tasks_executed = 0;
  int64_t renders = 0;
  int64_t max_queue_depth = 0;
  /// Gaps between consecutive render completions, microseconds.
  std::vector<int64_t> render_gaps_us;
};

/// The Java Event-Dispatch-Thread model the Stethoscope renders through:
/// a single dedicated thread consumes queued runnables in order; runnables
/// flagged as *renders* are throttled to at most one per
/// `min_render_interval_us` (default 150 ms — the rendering limitation the
/// paper works around). Plain tasks run unthrottled.
///
/// Thread-safe: any thread may Post; tasks run on the dispatch thread only.
class EventDispatchThread {
 public:
  /// `clock` drives throttling; a VirtualClock makes pacing deterministic
  /// (SleepMicros advances virtual time instantly).
  explicit EventDispatchThread(Clock* clock,
                               int64_t min_render_interval_us = 150000);
  ~EventDispatchThread();

  EventDispatchThread(const EventDispatchThread&) = delete;
  EventDispatchThread& operator=(const EventDispatchThread&) = delete;

  /// Enqueues a task. Render tasks are subject to the pacing delay.
  void Post(std::function<void()> task, bool is_render = false);

  /// Convenience: Post(task, /*is_render=*/true).
  void PostRender(std::function<void()> task) { Post(std::move(task), true); }

  /// Blocks until the queue is empty and the in-flight task finished.
  void Drain();

  /// Stops the thread after draining the queue.
  void Shutdown();

  /// Snapshot of pacing statistics.
  DispatchStats Stats() const;

 private:
  struct Task {
    std::function<void()> fn;
    bool is_render = false;
  };

  void Loop();

  Clock* clock_;
  int64_t min_render_interval_us_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::deque<Task> queue_;
  bool running_ = true;
  bool busy_ = false;

  DispatchStats stats_;
  int64_t last_render_us_ = -1;

  std::thread thread_;
};

}  // namespace stetho::viz

#endif  // STETHO_VIZ_EVENT_DISPATCH_H_
