#ifndef STETHO_PROFILER_SINK_H_
#define STETHO_PROFILER_SINK_H_

#include <cstdio>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "profiler/event.h"

namespace stetho::profiler {

/// Destination for profiled events. Implementations must be thread-safe:
/// the engine emits from multiple worker threads concurrently.
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void Consume(const TraceEvent& event) = 0;
  /// Consumes `n` events in order — semantically identical to calling
  /// Consume per event. Overrides amortize per-event costs (one lock
  /// acquisition per batch); the base implementation just loops.
  virtual void ConsumeBatch(const TraceEvent* events, size_t n) {
    for (size_t i = 0; i < n; ++i) Consume(events[i]);
  }
  /// Flushes buffered output (file/stream sinks).
  virtual Status Flush() { return Status::OK(); }
  /// Events this sink consumed but could not retain or deliver (ring
  /// overwrites, failed/short datagrams). 0 for sinks that never drop.
  /// Anything nonzero means the trace a client sees is incomplete.
  virtual int64_t dropped() const { return 0; }
};

/// Keeps the most recent `capacity` events in memory. This backs both unit
/// tests and the online monitor's sampling buffer (paper §4.2: "As the trace
/// file grows in size, its content is sampled in a buffer").
class RingBufferSink : public EventSink {
 public:
  explicit RingBufferSink(size_t capacity) : capacity_(capacity) {}

  /// Inserts at the event's sequence position, so a buffer fed by one
  /// profiler's concurrent workers stays in TraceEvent::event order.
  void Consume(const TraceEvent& event) override;
  /// One lock acquisition for the whole batch, appended in the given order.
  void ConsumeBatch(const TraceEvent* events, size_t n) override;

  /// Snapshot of buffered events, oldest first.
  std::vector<TraceEvent> Snapshot() const;
  size_t size() const;
  /// Total number of events ever consumed (including evicted ones).
  int64_t total_consumed() const;
  /// Events evicted by ring overwrite — silently lost to any reader that
  /// snapshots later. Also counted process-wide as
  /// `stetho_profiler_ring_dropped_total`.
  int64_t dropped() const override;
  void Clear();

 private:
  mutable std::mutex mu_;
  size_t capacity_;
  std::deque<TraceEvent> buffer_;
  int64_t total_ = 0;
  int64_t dropped_ = 0;
};

/// Appends FormatTraceLine output to a file — the paper's offline "dumped in
/// a file" path.
class FileSink : public EventSink {
 public:
  ~FileSink() override;

  /// Opens (truncates) `path` for writing.
  static Result<std::unique_ptr<FileSink>> Open(const std::string& path);

  void Consume(const TraceEvent& event) override;
  /// Formats all lines outside the lock, then writes them in one locked
  /// operation.
  void ConsumeBatch(const TraceEvent* events, size_t n) override;
  Status Flush() override;
  const std::string& path() const { return path_; }

 private:
  FileSink(std::string path, std::FILE* file)
      : path_(std::move(path)), file_(file) {}

  std::mutex mu_;
  std::string path_;
  std::FILE* file_;
};

/// Invokes a callback per event. The callback must be thread-safe.
class CallbackSink : public EventSink {
 public:
  explicit CallbackSink(std::function<void(const TraceEvent&)> fn)
      : fn_(std::move(fn)) {}

  void Consume(const TraceEvent& event) override { fn_(event); }

 private:
  std::function<void(const TraceEvent&)> fn_;
};

}  // namespace stetho::profiler

#endif  // STETHO_PROFILER_SINK_H_
