#ifndef STETHO_ENGINE_WORKER_POOL_H_
#define STETHO_ENGINE_WORKER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace stetho::engine {

/// The dop a query runs at when none is configured: the number of CPUs the
/// calling thread may use, which is the smaller of its sched_getaffinity
/// mask and the cgroup CPU quota (v2 `cpu.max`, v1 `cpu.cfs_quota_us` /
/// `cpu.cfs_period_us`, rounded up), and at least 1.
int DefaultDop();

/// A persistent, process-wide pool of dataflow worker threads.
///
/// Replaces the seed scheduler's thread-per-Execute model: workers are
/// started lazily on first use, grow on demand up to `max_workers`, and
/// serve every concurrent query in the process. Each worker owns its own
/// mutex-guarded deque (mutex-per-deque rather than a lock-free Chase–Lev
/// deque keeps the pool TSan-clean); submission targets one deque and an
/// idle worker steals from the others, so there is no global ready-list
/// lock and no notify_all wakeup storm on the hot path. A global mutex and
/// condition variable exist only for the idle transition: a worker takes
/// them solely after finding every deque empty, and Submit touches them
/// solely when some worker is actually asleep.
///
/// Queries coordinate through per-job state owned by the caller (atomic
/// dependency counters in the interpreter); submitted tasks are opaque
/// closures here. A task must never block on another task.
class WorkerPool {
 public:
  using Task = std::function<void()>;

  /// Upper bound on workers for any pool; requests beyond it are clamped.
  static constexpr int kMaxWorkers = 64;

  explicit WorkerPool(int max_workers = kMaxWorkers);
  ~WorkerPool();  // signals stop and joins all workers

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Process-wide shared instance. Lazily constructed; joined at exit.
  static WorkerPool* Default();

  /// Ensures at least `n` workers are running (clamped to max_workers).
  /// Cheap when already satisfied: one relaxed atomic load.
  void EnsureWorkers(int n);

  /// Enqueues a task and wakes at most one idle worker. When called from a
  /// pool worker the task lands on that worker's own deque (LIFO locality);
  /// external submitters round-robin across deques.
  void Submit(Task task);

  /// Total tasks executed; backed by the process-wide
  /// `stetho_pool_executed_total` registry counter (shared across pool
  /// instances).
  int64_t executed_count() const { return executed_->value(); }

 private:
  struct Worker {
    std::mutex mu;
    std::deque<Task> queue;
    std::thread thread;
  };

  void WorkerMain(int index);
  /// Pops from own deque (front) or steals from a victim's deque (back).
  bool TryAcquire(int index, Task* out);

  const int max_workers_;
  std::atomic<int> started_{0};     // workers visible to Submit/stealing
  std::atomic<int> next_victim_{0}; // round-robin submission cursor
  // Pool statistics live in the process-wide metrics registry (one relaxed
  // fetch_add, same cost as the ad-hoc atomics they replaced). The latency
  // histogram alone reads the clock, so it is gated on obs::Enabled().
  obs::Counter* steals_;
  obs::Counter* executed_;
  obs::Counter* wakeups_;
  obs::Gauge* queue_depth_;
  obs::Histogram* task_usec_;
  std::atomic<int64_t> pending_{0}; // queued-but-unclaimed tasks
  std::atomic<bool> stop_{false};

  std::mutex grow_mu_;  // serializes EnsureWorkers
  std::vector<std::unique_ptr<Worker>> workers_;  // sized max_workers_ upfront

  std::mutex idle_mu_;  // serializes park/notify only
  std::condition_variable idle_cv_;
  /// Workers currently parked (or about to park) on idle_cv_. Modified under
  /// idle_mu_; read lock-free by Submit, hence atomic. The seq_cst pairing
  /// with pending_ closes the missed-wakeup window (see Submit).
  std::atomic<int> sleepers_{0};
};

}  // namespace stetho::engine

#endif  // STETHO_ENGINE_WORKER_POOL_H_
