#ifndef STETHO_NET_TRACE_STREAM_H_
#define STETHO_NET_TRACE_STREAM_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "net/datagram.h"
#include "profiler/sink.h"

namespace stetho::net {

/// Wire framing of the profiler stream:
///
///   %DOT-BEGIN <query-name>       the plan's dot file follows
///   %DOT <dot-file line>          one line of dot content
///   %DOT-END <query-name>         dot file complete; execution starts next
///   [ ...trace event line... ]    profiler events (profiler/event.h format)
///   %EOF <query-name>             query finished
///
/// This mirrors the paper's protocol: the server pushes the dot file over
/// the UDP stream before query execution begins, then streams the trace;
/// the textual Stethoscope demultiplexes the two (paper §4.2). The lines
/// are the paper's. SendDotFile packs the dot framing lines into
/// '\n'-separated datagrams of at most kMaxDatagramBytes, so a receiver
/// splits a datagram that starts with '%' on '\n'. Each trace event and
/// each %EOF is a datagram of its own, taken whole: an event's statement
/// may hold a raw newline (a string literal), and an event held back to
/// fill a datagram would reach the monitor late, a start event only after
/// the kernel it announces finished.
struct StreamFraming {
  static constexpr std::string_view kDotBegin = "%DOT-BEGIN ";
  static constexpr std::string_view kDotLine = "%DOT ";
  static constexpr std::string_view kDotEnd = "%DOT-END ";
  static constexpr std::string_view kEof = "%EOF ";
};

/// Byte budget of a packed datagram. A width-128 plan's 128 KB dot file
/// then travels in about 20 datagrams instead of 4,001, well under both
/// UdpReceiver's 65,536-byte receive buffer and the 65,507-byte UDP payload
/// limit. 7 KiB rather than 8: on Linux loopback a datagram of up to about
/// 7.8 KB costs the socket's receive budget one 8 KiB allocation, a larger
/// one a 16 KiB allocation, so the default 212,992-byte receive buffer
/// holds 25 datagrams of 7 KiB but only 12 of 8 KiB — the whole width-128
/// dot fits before the listener drains any of it. A single line longer
/// than the budget still goes out, alone.
inline constexpr size_t kMaxDatagramBytes = 7 * 1024;

/// Profiler sink that forwards each event as one datagram. Thread-safe
/// (serializes sends).
class DatagramTraceSink : public profiler::EventSink {
 public:
  explicit DatagramTraceSink(std::shared_ptr<DatagramSender> sender)
      : sender_(std::move(sender)) {}

  /// Best-effort, like the UDP stream in the paper: a failed or truncated
  /// send is a dropped event, not an engine error — but it is counted here
  /// and in `stetho_net_trace_dropped_total`, never silently lost.
  void Consume(const profiler::TraceEvent& event) override;

  /// Events whose datagram was not (fully) delivered to the socket.
  int64_t dropped() const override {
    return dropped_.load(std::memory_order_relaxed);
  }

  DatagramSender* sender() const { return sender_.get(); }

 private:
  std::shared_ptr<DatagramSender> sender_;
  std::atomic<int64_t> dropped_{0};
};

/// Sends a dot file over the stream using the framing above, its lines
/// packed into datagrams of at most kMaxDatagramBytes.
Status SendDotFile(DatagramSender* sender, std::string_view query_name,
                   std::string_view dot_content);

/// Sends the end-of-query marker (one datagram).
Status SendEof(DatagramSender* sender, std::string_view query_name);

}  // namespace stetho::net

#endif  // STETHO_NET_TRACE_STREAM_H_
