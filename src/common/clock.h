#ifndef STETHO_COMMON_CLOCK_H_
#define STETHO_COMMON_CLOCK_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>

namespace stetho {

/// Time source abstraction. All timestamps in the library are microseconds
/// since an arbitrary epoch. Production paths use SteadyClock; tests and
/// deterministic benchmarks drive a VirtualClock explicitly.
class Clock {
 public:
  virtual ~Clock() = default;
  /// Current time in microseconds.
  virtual int64_t NowMicros() const = 0;
  /// Blocks (or logically advances) for `micros` microseconds.
  virtual void SleepMicros(int64_t micros) = 0;
  /// Waits on `cv` for at most `micros` microseconds; `lock` holds the
  /// mutex the waiters and notifiers of `cv` share. A real clock returns
  /// when notified, when the time is up or spuriously; a virtual clock
  /// advances by `micros` and returns at once. Callers re-check their
  /// condition after every return.
  virtual void WaitMicros(std::condition_variable* cv,
                          std::unique_lock<std::mutex>* lock,
                          int64_t micros) = 0;
};

/// Monotonic wall clock backed by std::chrono::steady_clock.
class SteadyClock : public Clock {
 public:
  int64_t NowMicros() const override;
  void SleepMicros(int64_t micros) override;
  void WaitMicros(std::condition_variable* cv,
                  std::unique_lock<std::mutex>* lock, int64_t micros) override;

  /// Process-wide shared instance.
  static SteadyClock* Default();
};

/// Deterministic manually-advanced clock. Thread-safe: Advance and NowMicros
/// may be called concurrently. SleepMicros advances the clock itself, so a
/// single-threaded test that "sleeps" observes time passing; WaitMicros
/// does the same without waiting for a notification.
class VirtualClock : public Clock {
 public:
  explicit VirtualClock(int64_t start_micros = 0) : now_(start_micros) {}

  int64_t NowMicros() const override { return now_.load(std::memory_order_acquire); }
  void SleepMicros(int64_t micros) override { Advance(micros); }
  void WaitMicros(std::condition_variable* /*cv*/,
                  std::unique_lock<std::mutex>* /*lock*/,
                  int64_t micros) override {
    Advance(micros);
  }

  /// Moves time forward by `micros` (negative deltas are ignored).
  void Advance(int64_t micros) {
    if (micros > 0) now_.fetch_add(micros, std::memory_order_acq_rel);
  }

  /// Jumps to an absolute time; never moves backwards.
  void AdvanceTo(int64_t micros) {
    int64_t cur = now_.load(std::memory_order_acquire);
    while (micros > cur &&
           !now_.compare_exchange_weak(cur, micros, std::memory_order_acq_rel)) {
    }
  }

 private:
  std::atomic<int64_t> now_;
};

}  // namespace stetho

#endif  // STETHO_COMMON_CLOCK_H_
