#include "engine/worker_pool.h"

#include <sched.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <string>

#include "common/clock.h"
#include "common/logging.h"

namespace stetho::engine {
namespace {

/// Identity of the pool worker running the current thread (Submit locality).
thread_local const WorkerPool* tls_pool = nullptr;
thread_local int tls_worker = -1;

/// CPUs granted by the cgroup CPU quota of this process's cgroup as
/// mounted at /sys/fs/cgroup, rounded up; 0 when no quota is set.
int CgroupCpuQuota() {
  int64_t quota = -1;
  int64_t period = 0;
  std::ifstream v2("/sys/fs/cgroup/cpu.max");  // "max 100000" or "50000 100000"
  std::string first;
  if (v2 >> first >> period) {
    if (first != "max") quota = std::strtoll(first.c_str(), nullptr, 10);
  } else {
    for (const char* dir :
         {"/sys/fs/cgroup/cpu", "/sys/fs/cgroup/cpu,cpuacct"}) {
      std::ifstream q(std::string(dir) + "/cpu.cfs_quota_us");
      std::ifstream p(std::string(dir) + "/cpu.cfs_period_us");
      if (q >> quota && p >> period) break;
      quota = -1;
    }
  }
  if (quota <= 0 || period <= 0) return 0;
  return static_cast<int>((quota + period - 1) / period);
}

}  // namespace

int DefaultDop() {
  int cpus = static_cast<int>(std::thread::hardware_concurrency());
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) cpus = CPU_COUNT(&mask);
  // The quota cannot change under a running process; the mask can.
  static const int quota = CgroupCpuQuota();
  if (quota > 0) cpus = std::min(cpus, quota);
  return std::max(1, cpus);
}

WorkerPool::WorkerPool(int max_workers)
    : max_workers_(max_workers < 1 ? 1 : max_workers) {
  obs::Registry* registry = obs::Registry::Default();
  steals_ = registry->GetOrCreateCounter(
      "stetho_pool_steals_total",
      "Tasks obtained by stealing from another worker's deque");
  executed_ = registry->GetOrCreateCounter(
      "stetho_pool_executed_total", "Tasks executed by pool workers");
  wakeups_ = registry->GetOrCreateCounter(
      "stetho_pool_wakeups_total", "Idle workers woken by Submit");
  queue_depth_ = registry->GetOrCreateGauge(
      "stetho_pool_queue_depth",
      "Queued-but-unclaimed tasks, sampled when a worker acquires one");
  task_usec_ = registry->GetOrCreateHistogram(
      "stetho_pool_task_usec",
      "Task execution latency in microseconds (recorded while observability "
      "is enabled)",
      obs::Histogram::DefaultLatencyBounds());
  // All Worker slots exist up front so Submit/steal never race a vector
  // reallocation; threads are attached lazily by EnsureWorkers.
  workers_.reserve(static_cast<size_t>(max_workers_));
  for (int i = 0; i < max_workers_; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
}

WorkerPool::~WorkerPool() {
  stop_.store(true, std::memory_order_seq_cst);
  {
    std::lock_guard<std::mutex> lock(idle_mu_);
    idle_cv_.notify_all();
  }
  for (int i = 0; i < started_.load(std::memory_order_acquire); ++i) {
    if (workers_[static_cast<size_t>(i)]->thread.joinable()) {
      workers_[static_cast<size_t>(i)]->thread.join();
    }
  }
}

WorkerPool* WorkerPool::Default() {
  static WorkerPool pool;
  return &pool;
}

void WorkerPool::EnsureWorkers(int n) {
  if (n > max_workers_) n = max_workers_;
  if (started_.load(std::memory_order_acquire) >= n) return;
  std::lock_guard<std::mutex> lock(grow_mu_);
  int have = started_.load(std::memory_order_acquire);
  for (int i = have; i < n; ++i) {
    workers_[static_cast<size_t>(i)]->thread =
        std::thread(&WorkerPool::WorkerMain, this, i);
    started_.store(i + 1, std::memory_order_release);
  }
}

void WorkerPool::Submit(Task task) {
  int n = started_.load(std::memory_order_acquire);
  if (n == 0) {
    EnsureWorkers(1);
    n = started_.load(std::memory_order_acquire);
  }
  int target;
  if (tls_pool == this && tls_worker >= 0 && tls_worker < n) {
    target = tls_worker;
  } else {
    target = next_victim_.fetch_add(1, std::memory_order_relaxed) % n;
    if (target < 0) target += n;
  }
  Worker& w = *workers_[static_cast<size_t>(target)];
  {
    std::lock_guard<std::mutex> lock(w.mu);
    w.queue.push_back(std::move(task));
  }
  // Two-phase wakeup: publish the task count, then wake one sleeper if any.
  // Both sides use seq_cst so either the sleeper observes pending_ > 0
  // before parking or we observe sleepers_ > 0 here — never neither.
  pending_.fetch_add(1, std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_seq_cst) > 0) {
    wakeups_->Increment();
    std::lock_guard<std::mutex> lock(idle_mu_);
    idle_cv_.notify_one();
  }
}

bool WorkerPool::TryAcquire(int index, Task* out) {
  const int n = started_.load(std::memory_order_acquire);
  Worker& own = *workers_[static_cast<size_t>(index)];
  {
    std::lock_guard<std::mutex> lock(own.mu);
    if (!own.queue.empty()) {
      *out = std::move(own.queue.front());
      own.queue.pop_front();
      queue_depth_->Set(pending_.fetch_sub(1, std::memory_order_relaxed) - 1);
      return true;
    }
  }
  // Steal from the back of a victim's deque (oldest task: likely the head
  // of a dependency chain another query is waiting on).
  for (int k = 1; k < n; ++k) {
    Worker& victim = *workers_[static_cast<size_t>((index + k) % n)];
    std::lock_guard<std::mutex> lock(victim.mu);
    if (!victim.queue.empty()) {
      *out = std::move(victim.queue.back());
      victim.queue.pop_back();
      queue_depth_->Set(pending_.fetch_sub(1, std::memory_order_relaxed) - 1);
      steals_->Increment();
      return true;
    }
  }
  return false;
}

void WorkerPool::WorkerMain(int index) {
  tls_pool = this;
  tls_worker = index;
  Task task;
  while (true) {
    if (TryAcquire(index, &task)) {
      executed_->Increment();
      if (obs::Enabled()) {
        // The latency histogram is the only pool stat that reads the clock,
        // so it alone hides behind the kill switch.
        int64_t t0 = SteadyClock::Default()->NowMicros();
        task();
        task_usec_->Observe(SteadyClock::Default()->NowMicros() - t0);
      } else {
        task();
      }
      task = nullptr;
      continue;
    }
    // Queues drained: on shutdown exit, otherwise park until Submit wakes us.
    if (stop_.load(std::memory_order_seq_cst)) return;
    std::unique_lock<std::mutex> lock(idle_mu_);
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    idle_cv_.wait(lock, [this] {
      return pending_.load(std::memory_order_seq_cst) > 0 ||
             stop_.load(std::memory_order_seq_cst);
    });
    sleepers_.fetch_sub(1, std::memory_order_seq_cst);
  }
}

}  // namespace stetho::engine
