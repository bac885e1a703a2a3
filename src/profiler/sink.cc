#include "profiler/sink.h"

#include <iterator>

#include "obs/metrics.h"

namespace stetho::profiler {
namespace {

obs::Counter* RingDroppedCounter() {
  static obs::Counter* counter = obs::Registry::Default()->GetOrCreateCounter(
      "stetho_profiler_ring_dropped_total",
      "Profiler events evicted from ring-buffer sinks by overwrite");
  return counter;
}

}  // namespace

void RingBufferSink::Consume(const TraceEvent& event) {
  std::lock_guard<std::mutex> lock(mu_);
  // Workers hand events over after leaving the profiler's stamp lock, so an
  // event can arrive just behind a later one: walk back past the few that
  // overtook it. Equal ids keep arrival order.
  auto pos = buffer_.end();
  while (pos != buffer_.begin() && std::prev(pos)->event > event.event) --pos;
  buffer_.insert(pos, event);
  ++total_;
  while (buffer_.size() > capacity_) {
    buffer_.pop_front();
    ++dropped_;
    RingDroppedCounter()->Increment();
  }
}

void RingBufferSink::ConsumeBatch(const TraceEvent* events, size_t n) {
  if (n == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  // A batch larger than the ring would push events only to evict them
  // again; keep the last `capacity_` and count the rest straight as drops.
  size_t skip = n > capacity_ ? n - capacity_ : 0;
  for (size_t i = skip; i < n; ++i) buffer_.push_back(events[i]);
  total_ += static_cast<int64_t>(n);
  int64_t evicted = static_cast<int64_t>(skip);
  while (buffer_.size() > capacity_) {
    buffer_.pop_front();
    ++evicted;
  }
  if (evicted > 0) {
    dropped_ += evicted;
    RingDroppedCounter()->Increment(evicted);
  }
}

std::vector<TraceEvent> RingBufferSink::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<TraceEvent>(buffer_.begin(), buffer_.end());
}

size_t RingBufferSink::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return buffer_.size();
}

int64_t RingBufferSink::total_consumed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

int64_t RingBufferSink::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

void RingBufferSink::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  buffer_.clear();
}

FileSink::~FileSink() {
  if (file_ != nullptr) std::fclose(file_);
}

Result<std::unique_ptr<FileSink>> FileSink::Open(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IoError("cannot open trace file '" + path + "' for writing");
  }
  return std::unique_ptr<FileSink>(new FileSink(path, f));
}

void FileSink::Consume(const TraceEvent& event) {
  std::string line = FormatTraceLine(event);
  std::lock_guard<std::mutex> lock(mu_);
  std::fputs(line.c_str(), file_);
  std::fputc('\n', file_);
}

void FileSink::ConsumeBatch(const TraceEvent* events, size_t n) {
  if (n == 0) return;
  std::string lines;
  for (size_t i = 0; i < n; ++i) {
    lines += FormatTraceLine(events[i]);
    lines += '\n';
  }
  std::lock_guard<std::mutex> lock(mu_);
  std::fwrite(lines.data(), 1, lines.size(), file_);
}

Status FileSink::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (std::fflush(file_) != 0) {
    return Status::IoError("flush failed for '" + path_ + "'");
  }
  return Status::OK();
}

}  // namespace stetho::profiler
