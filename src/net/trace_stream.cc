#include "net/trace_stream.h"

#include "obs/metrics.h"

namespace stetho::net {
namespace {

obs::Counter* TraceDroppedCounter() {
  static obs::Counter* counter = obs::Registry::Default()->GetOrCreateCounter(
      "stetho_net_trace_dropped_total",
      "Profiler trace events lost by datagram sinks (send failed or "
      "truncated)");
  return counter;
}

}  // namespace

void DatagramTraceSink::Consume(const profiler::TraceEvent& event) {
  Status st = sender_->Send(profiler::FormatTraceLine(event));
  if (!st.ok()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    TraceDroppedCounter()->Increment();
  }
}

Status SendDotFile(DatagramSender* sender, std::string_view query_name,
                   std::string_view dot_content) {
  std::string datagram;
  datagram.reserve(kMaxDatagramBytes);
  auto add_line = [&](std::string_view tag, std::string_view text) {
    const size_t bytes = tag.size() + text.size();
    if (!datagram.empty()) {
      if (datagram.size() + 1 + bytes > kMaxDatagramBytes) {
        STETHO_RETURN_IF_ERROR(sender->Send(datagram));
        datagram.clear();
      } else {
        datagram.push_back('\n');
      }
    }
    datagram.append(tag).append(text);
    return Status::OK();
  };
  STETHO_RETURN_IF_ERROR(add_line(StreamFraming::kDotBegin, query_name));
  size_t pos = 0;
  while (pos < dot_content.size()) {
    size_t end = dot_content.find('\n', pos);
    if (end == std::string_view::npos) end = dot_content.size();
    if (end > pos) {
      STETHO_RETURN_IF_ERROR(add_line(StreamFraming::kDotLine,
                                      dot_content.substr(pos, end - pos)));
    }
    pos = end + 1;
  }
  STETHO_RETURN_IF_ERROR(add_line(StreamFraming::kDotEnd, query_name));
  return sender->Send(datagram);
}

Status SendEof(DatagramSender* sender, std::string_view query_name) {
  std::string line(StreamFraming::kEof);
  line.append(query_name);
  return sender->Send(line);
}

}  // namespace stetho::net
