#ifndef STETHO_SCOPE_TEXTUAL_H_
#define STETHO_SCOPE_TEXTUAL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "net/datagram.h"
#include "net/pipe_health.h"
#include "profiler/filter.h"
#include "profiler/sink.h"

namespace stetho::scope {

/// Configuration of the textual Stethoscope.
struct TextualOptions {
  /// Trace file path; received events are appended here ("" = memory only).
  std::string trace_path;
  /// Client-side filter applied to incoming events (paper §3.2: "Its filter
  /// options allow for selective tracing of execution states on each of the
  /// connected servers").
  profiler::EventFilter filter;
  /// Capacity of the in-memory sampling buffer (paper §4.2: "its content is
  /// sampled in a buffer").
  size_t buffer_capacity = 8192;
  /// Receiver time source (nullptr = steady clock): WaitForChange waits on
  /// it, and the stream-health latency/staleness estimates read it while
  /// obs::Enabled() — the loss/reorder/duplicate accounting itself never
  /// reads a clock.
  Clock* clock = nullptr;
};

/// The textual Stethoscope (paper §3.2): connects to one or more MonetDB
/// servers over UDP, receives their execution-trace streams, splits each
/// datagram into its newline-separated lines, demultiplexes dot-file content
/// from trace events (paper §4.2 framing), redirects trace lines to a trace
/// file, and keeps a sampled ring buffer for run-time analysis.
///
/// One listener thread per connected server; Stop() joins them all.
class TextualStethoscope {
 public:
  explicit TextualStethoscope(TextualOptions options);
  ~TextualStethoscope();

  TextualStethoscope(const TextualStethoscope&) = delete;
  TextualStethoscope& operator=(const TextualStethoscope&) = delete;

  /// Connects a named server stream and starts its listener thread.
  Status AddServer(const std::string& name,
                   std::unique_ptr<net::DatagramReceiver> receiver);

  /// Stops all listener threads (idempotent).
  void Stop();

  /// Registers a callback fired for every accepted trace event
  /// (server name, event). Must be thread-safe.
  void SetEventCallback(
      std::function<void(const std::string&, const profiler::TraceEvent&)> cb);

  /// --- received state ---

  /// Snapshot of the sampling buffer (oldest first).
  std::vector<profiler::TraceEvent> BufferSnapshot() const;

  /// Dot file content received for a query (paper: "It filters the dot file
  /// content, generates a new dot file"). Queries are keyed
  /// "server/query-name" because multiple servers may reuse names like
  /// "s0". NotFound until %DOT-END arrived.
  Result<std::string> DotFor(const std::string& query) const;

  /// Keys ("server/query") of queries whose dot file is complete.
  std::vector<std::string> CompletedDots() const;

  /// Keys of queries whose %EOF marker arrived.
  std::vector<std::string> FinishedQueries() const;
  bool QueryFinished(const std::string& query) const;

  /// Change counter, bumped each time a dot file completes and each time a
  /// %EOF arrives (trace events do not bump it). Read it before checking
  /// CompletedDots() or QueryFinished() and pass it to WaitForChange, so a
  /// change landing between the check and the wait is not lost.
  uint64_t changes() const;
  /// Blocks until changes() differs from `seen` or `timeout_us` has passed
  /// on the options' clock (a VirtualClock advances by the timeout and
  /// returns at once). Returns the counter's value.
  uint64_t WaitForChange(uint64_t seen, int64_t timeout_us);

  int64_t events_received() const { return received_.load(); }
  int64_t events_filtered() const { return filtered_.load(); }
  int64_t malformed_lines() const { return malformed_.load(); }

  /// Delivery health of one server's stream, accounted from the per-event
  /// global sequence numbers (pre-filter, so client-side filtering never
  /// reads as loss). Zero-valued summary for unknown servers.
  net::PipeHealthSummary HealthFor(const std::string& server) const;
  /// Feeds stetho_pipe_staleness_usec with the current age of the rendered
  /// picture on every stream. Call once per analysis/render round; no-op
  /// unless obs::Enabled().
  void ObserveStaleness();

  /// Flushes the trace file (if any).
  Status Flush();

 private:
  void ListenLoop(std::string server, net::DatagramReceiver* receiver,
                  net::StreamHealth* health);
  /// Processes a batch of received lines in order: trace-event runs are
  /// parsed outside any lock and pushed through the sinks batch-wise;
  /// each contiguous run of framing lines takes one mu_ acquisition.
  void HandleBatch(const std::string& server,
                   const std::vector<std::string_view>& lines,
                   net::StreamHealth* health);
  /// Applies one framing (control) line; caller holds mu_.
  void HandleControlLocked(const std::string& server, std::string_view line);
  /// options_.clock, or the steady clock when unset.
  Clock* clock() const;

  TextualOptions options_;
  std::shared_ptr<profiler::RingBufferSink> buffer_;
  std::unique_ptr<profiler::FileSink> trace_file_;

  std::atomic<bool> running_{true};
  std::atomic<int64_t> received_{0};
  std::atomic<int64_t> filtered_{0};
  std::atomic<int64_t> malformed_{0};

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<net::DatagramReceiver>> receivers_;
  std::vector<std::thread> threads_;
  /// Per-server stream-health accountants; entries are created in
  /// AddServer and never removed, and StreamHealth is internally
  /// synchronized, so listener threads use the raw pointer lock-free.
  std::map<std::string, std::unique_ptr<net::StreamHealth>> health_;
  std::map<std::string, std::string> dot_partial_;   // query -> accumulating
  std::map<std::string, std::string> dot_complete_;  // query -> full dot
  std::vector<std::string> finished_;
  /// See changes(); guarded by mu_, waited on through `changed_`.
  uint64_t changes_ = 0;
  std::condition_variable changed_;
  std::function<void(const std::string&, const profiler::TraceEvent&)> callback_;
};

}  // namespace stetho::scope

#endif  // STETHO_SCOPE_TEXTUAL_H_
