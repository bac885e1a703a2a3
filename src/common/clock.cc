#include "common/clock.h"

#include <chrono>
#include <thread>

namespace stetho {

int64_t SteadyClock::NowMicros() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SteadyClock::SleepMicros(int64_t micros) {
  if (micros > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(micros));
  }
}

void SteadyClock::WaitMicros(std::condition_variable* cv,
                             std::unique_lock<std::mutex>* lock,
                             int64_t micros) {
  if (micros > 0) cv->wait_for(*lock, std::chrono::microseconds(micros));
}

SteadyClock* SteadyClock::Default() {
  static SteadyClock* clock = new SteadyClock();
  return clock;
}

}  // namespace stetho
