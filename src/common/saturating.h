#ifndef STETHO_COMMON_SATURATING_H_
#define STETHO_COMMON_SATURATING_H_

#include <cstdint>

namespace stetho {

/// a + b clamped to the int64_t range. Times, durations and counts read
/// from a trace file or off the wire may be wild; sums of them must not
/// wrap.
inline int64_t SaturatingAdd(int64_t a, int64_t b) {
  int64_t sum = 0;
  if (__builtin_add_overflow(a, b, &sum)) {
    return b < 0 ? INT64_MIN : INT64_MAX;
  }
  return sum;
}

/// a - b clamped to the int64_t range: the gap between two emit times, an
/// offset or a latency never wraps on a wild time.
inline int64_t SaturatingSub(int64_t a, int64_t b) {
  int64_t difference = 0;
  if (__builtin_sub_overflow(a, b, &difference)) {
    return b < 0 ? INT64_MAX : INT64_MIN;
  }
  return difference;
}

}  // namespace stetho

#endif  // STETHO_COMMON_SATURATING_H_
