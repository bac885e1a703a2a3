#include "scope/textual.h"

#include "common/logging.h"
#include "common/string_util.h"
#include "net/trace_stream.h"
#include "obs/metrics.h"

namespace stetho::scope {

using net::StreamFraming;
using profiler::TraceEvent;

TextualStethoscope::TextualStethoscope(TextualOptions options)
    : options_(std::move(options)),
      buffer_(std::make_shared<profiler::RingBufferSink>(
          options_.buffer_capacity)) {
  if (!options_.trace_path.empty()) {
    auto file = profiler::FileSink::Open(options_.trace_path);
    if (file.ok()) {
      trace_file_ = std::move(file).value();
    } else {
      STETHO_LOG(Warning) << "textual stethoscope: "
                          << file.status().ToString();
    }
  }
}

TextualStethoscope::~TextualStethoscope() { Stop(); }

Status TextualStethoscope::AddServer(
    const std::string& name, std::unique_ptr<net::DatagramReceiver> receiver) {
  if (!running_.load()) return Status::Aborted("stethoscope stopped");
  net::DatagramReceiver* raw = receiver.get();
  std::lock_guard<std::mutex> lock(mu_);
  auto& health = health_[name];
  if (health == nullptr) {
    health = std::make_unique<net::StreamHealth>();
  }
  receivers_.push_back(std::move(receiver));
  threads_.emplace_back(&TextualStethoscope::ListenLoop, this, name, raw,
                        health.get());
  return Status::OK();
}

void TextualStethoscope::Stop() {
  if (!running_.exchange(false)) {
    return;
  }
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& r : receivers_) r->Close();
    threads.swap(threads_);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
  // The streams are gone: any sequence number still missing is lost.
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, health] : health_) health->Finalize();
}

void TextualStethoscope::SetEventCallback(
    std::function<void(const std::string&, const TraceEvent&)> cb) {
  std::lock_guard<std::mutex> lock(mu_);
  callback_ = std::move(cb);
}

std::vector<TraceEvent> TextualStethoscope::BufferSnapshot() const {
  return buffer_->Snapshot();
}

Result<std::string> TextualStethoscope::DotFor(const std::string& query) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = dot_complete_.find(query);
  if (it == dot_complete_.end()) {
    return Status::NotFound("no complete dot file for query '" + query + "'");
  }
  return it->second;
}

std::vector<std::string> TextualStethoscope::CompletedDots() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (const auto& [query, dot] : dot_complete_) out.push_back(query);
  return out;
}

std::vector<std::string> TextualStethoscope::FinishedQueries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return finished_;
}

bool TextualStethoscope::QueryFinished(const std::string& query) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::string& q : finished_) {
    if (q == query) return true;
  }
  return false;
}

uint64_t TextualStethoscope::changes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return changes_;
}

uint64_t TextualStethoscope::WaitForChange(uint64_t seen, int64_t timeout_us) {
  Clock* time = clock();
  const int64_t deadline = time->NowMicros() + timeout_us;
  std::unique_lock<std::mutex> lock(mu_);
  while (changes_ == seen) {
    const int64_t left = deadline - time->NowMicros();
    if (left <= 0) break;
    time->WaitMicros(&changed_, &lock, left);
  }
  return changes_;
}

Clock* TextualStethoscope::clock() const {
  return options_.clock != nullptr ? options_.clock : SteadyClock::Default();
}

Status TextualStethoscope::Flush() {
  if (trace_file_ != nullptr) return trace_file_->Flush();
  return Status::OK();
}

net::PipeHealthSummary TextualStethoscope::HealthFor(
    const std::string& server) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = health_.find(server);
  return it != health_.end() ? it->second->Snapshot()
                             : net::PipeHealthSummary{};
}

void TextualStethoscope::ObserveStaleness() {
  if (!obs::Enabled()) return;
  const int64_t now = clock()->NowMicros();
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, health] : health_) health->ObserveStaleness(now);
}

namespace {

/// Receive timeout of a listener's blocking wait: how long Stop() may wait
/// for a quiet listener to notice it should exit.
constexpr int kPollMs = 20;

/// After a blocking receive, queued datagrams are drained (zero timeout)
/// into one batch of at most this many: one sink lock acquisition per batch
/// instead of per event, while a flood still passes its events on, and
/// checks for Stop(), after every batch.
constexpr size_t kMaxBatch = 256;

/// A stream-framing (control) line — never a trace event.
bool IsControlLine(std::string_view line) {
  return StartsWith(line, StreamFraming::kDotBegin) ||
         StartsWith(line, StreamFraming::kDotLine) ||
         StartsWith(line, StreamFraming::kDotEnd) ||
         StartsWith(line, StreamFraming::kEof);
}

}  // namespace

void TextualStethoscope::ListenLoop(std::string server,
                                    net::DatagramReceiver* receiver,
                                    net::StreamHealth* health) {
  std::vector<std::string> batch;
  std::vector<std::string_view> lines;
  std::string payload;
  while (running_.load(std::memory_order_relaxed)) {
    auto got = receiver->Receive(&payload, kPollMs);
    if (!got.ok()) return;  // closed
    if (!got.value()) continue;
    // Drain whatever else is already queued (zero timeout) so one wakeup
    // processes a burst as a single batch. A Close mid-drain still gets
    // the collected batch processed before the loop exits.
    batch.clear();
    batch.push_back(std::move(payload));
    bool closed = false;
    while (batch.size() < kMaxBatch) {
      auto more = receiver->Receive(&payload, 0);
      if (!more.ok()) {
        closed = true;
        break;
      }
      if (!more.value()) break;
      batch.push_back(std::move(payload));
    }
    lines.clear();
    for (const std::string& datagram : batch) {
      std::string_view rest = datagram;
      // Only framing datagrams are packed. A trace event is one line per
      // datagram and its statement may hold a raw newline (a string
      // literal), so it goes to the parser whole.
      if (rest.empty() || rest.front() != '%') {
        lines.push_back(rest);
        continue;
      }
      size_t nl;
      while ((nl = rest.find('\n')) != std::string_view::npos) {
        lines.push_back(rest.substr(0, nl));
        rest.remove_prefix(nl + 1);
      }
      lines.push_back(rest);
    }
    HandleBatch(server, lines, health);
    if (closed) return;
  }
}

void TextualStethoscope::HandleBatch(
    const std::string& server, const std::vector<std::string_view>& lines,
    net::StreamHealth* health) {
  std::function<void(const std::string&, const TraceEvent&)> cb;
  {
    std::lock_guard<std::mutex> lock(mu_);
    cb = callback_;
  }
  // One ingest timestamp per batch feeds the emit→ingest latency estimate.
  // The clock read is gated on the obs kill switch (counting gaps is free,
  // timing them is opt-in); a negative ingest skips the latency path.
  const int64_t ingest_us = obs::Enabled() ? clock()->NowMicros() : -1;

  std::vector<TraceEvent> events;  // current contiguous run of accepted events
  int64_t received = 0;
  int64_t filtered = 0;
  int64_t malformed = 0;
  auto flush_events = [&] {
    if (received > 0) received_.fetch_add(received, std::memory_order_relaxed);
    if (filtered > 0) filtered_.fetch_add(filtered, std::memory_order_relaxed);
    if (malformed > 0) {
      malformed_.fetch_add(malformed, std::memory_order_relaxed);
    }
    received = filtered = malformed = 0;
    if (events.empty()) return;
    buffer_->ConsumeBatch(events.data(), events.size());
    if (trace_file_ != nullptr) {
      trace_file_->ConsumeBatch(events.data(), events.size());
    }
    if (cb) {
      for (const TraceEvent& e : events) cb(server, e);
    }
    events.clear();
  };

  size_t i = 0;
  while (i < lines.size()) {
    if (IsControlLine(lines[i])) {
      // Flush pending events first so state observable through the framing
      // markers (e.g. %EOF → QueryFinished) never runs ahead of the buffer.
      flush_events();
      std::lock_guard<std::mutex> lock(mu_);
      while (i < lines.size() && IsControlLine(lines[i])) {
        // %EOF closes the query: sequence numbers still missing will never
        // arrive (delivery is ordered behind the marker), so the open gaps
        // settle into `lost` now instead of waiting for Stop().
        if (StartsWith(lines[i], StreamFraming::kEof)) health->Finalize();
        HandleControlLocked(server, lines[i]);
        ++i;
      }
      continue;
    }
    auto event = profiler::ParseTraceLine(lines[i]);
    ++i;
    if (!event.ok()) {
      ++malformed;
      continue;
    }
    ++received;
    // Health accounting runs before the client-side filter: the wire
    // delivered the event, so suppressing it locally must not read as
    // transport loss.
    health->Observe(event.value(), ingest_us);
    if (!options_.filter.Matches(event.value())) {
      ++filtered;
      continue;
    }
    events.push_back(std::move(event).value());
  }
  flush_events();
}

void TextualStethoscope::HandleControlLocked(const std::string& server,
                                             std::string_view line) {
  // Demultiplex dot-file content from trace events (paper §4.2). Queries
  // from different servers may share a name ("s0"), so all dot/EOF keys are
  // namespaced "server/query".
  if (StartsWith(line, StreamFraming::kDotLine)) {
    // Dot lines carry no query tag; append to this server's open
    // accumulations (exactly one at a time per server in practice).
    const std::string_view text = line.substr(StreamFraming::kDotLine.size());
    for (auto& [key, content] : dot_partial_) {
      if (key.size() <= server.size() || key[server.size()] != '/' ||
          !StartsWith(key, server)) {
        continue;
      }
      content.append(text);
      content.push_back('\n');
    }
    return;
  }
  auto key_after = [&](std::string_view tag) {
    std::string key = server;
    key.push_back('/');
    key.append(line.substr(tag.size()));
    return key;
  };
  if (StartsWith(line, StreamFraming::kDotBegin)) {
    dot_partial_[key_after(StreamFraming::kDotBegin)].clear();
    return;
  }
  if (StartsWith(line, StreamFraming::kDotEnd)) {
    auto it = dot_partial_.find(key_after(StreamFraming::kDotEnd));
    if (it != dot_partial_.end()) {
      dot_complete_[it->first] = std::move(it->second);
      dot_partial_.erase(it);
    }
  } else {
    finished_.push_back(key_after(StreamFraming::kEof));
  }
  // A completed dot or a %EOF is what OnlineMonitor waits for.
  ++changes_;
  changed_.notify_all();
}

}  // namespace stetho::scope
