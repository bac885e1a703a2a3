#ifndef STETHO_OBS_FLIGHT_RECORDER_H_
#define STETHO_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdio>
#include <deque>
#include <mutex>
#include <string>

#include "common/status.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace stetho::obs {

/// Black-box recorder: keeps a bounded ring of recent annotations and, on
/// Dump, renders them together with the tracer's most recent spans and a
/// full metrics snapshot — so a query abort or a pass-equivalence failure
/// arrives with context attached instead of a bare Status message.
///
/// Disabled by default (failing queries are routine in tests); the CLI,
/// server dump command, and targeted tests switch it on. Thread-safe.
class FlightRecorder {
 public:
  explicit FlightRecorder(Registry* registry, Tracer* tracer,
                          size_t max_notes = 64, size_t max_spans = 48)
      : registry_(registry),
        tracer_(tracer),
        max_notes_(max_notes == 0 ? 1 : max_notes),
        max_spans_(max_spans) {}
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Appends a timestamped annotation to the ring ("query s3 started",
  /// "pass dead-code fired"). No-op while disabled.
  void Note(std::string note);

  /// Renders the black box: reason, recent notes, the tracer's last
  /// `max_spans` spans, and the metrics snapshot.
  std::string Render(const std::string& reason) const;

  /// Renders and writes to the configured output (stderr by default, or the
  /// file set via SetOutputFile). Counts dumps; works even while disabled so
  /// an explicit operator request always answers.
  void Dump(const std::string& reason);

  /// Redirects dumps to `path` (truncates); "" restores stderr.
  Status SetOutputFile(const std::string& path);

  /// Writes each dump as its own bundle file `<dir>/flight_NNNN.txt` where
  /// NNNN is the dump ordinal — deterministic (no timestamps in the name,
  /// so VirtualClock-driven tests produce stable paths). "" restores the
  /// stderr/SetOutputFile behavior. The directory must exist.
  Status SetOutputDir(const std::string& dir);

  int64_t dump_count() const {
    return dumps_.load(std::memory_order_relaxed);
  }

  /// Bundle path the next Dump() will write, or "" when no directory is
  /// configured (lets callers report where the black box landed).
  std::string NextBundlePath() const;

  /// Process-wide recorder over Registry::Default() / Tracer::Default(),
  /// keeping the last 64 notes. STETHO_FLIGHT_DIR preconfigures
  /// SetOutputDir, read once.
  static FlightRecorder* Default();

 private:
  struct NoteEntry {
    int64_t time_us = 0;
    std::string text;
  };

  Registry* registry_;
  Tracer* tracer_;
  const size_t max_notes_;
  const size_t max_spans_;
  std::atomic<bool> enabled_{false};
  std::atomic<int64_t> dumps_{0};

  mutable std::mutex mu_;  // guards notes_, out_, and out_dir_
  std::deque<NoteEntry> notes_;
  std::FILE* out_ = nullptr;  // nullptr = stderr
  std::string out_dir_;       // "" = single-stream output
};

}  // namespace stetho::obs

#endif  // STETHO_OBS_FLIGHT_RECORDER_H_
