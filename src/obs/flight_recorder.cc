#include "obs/flight_recorder.h"

#include <cstdlib>

#include "common/string_util.h"

namespace stetho::obs {

FlightRecorder::~FlightRecorder() {
  if (out_ != nullptr) std::fclose(out_);
}

void FlightRecorder::Note(std::string note) {
  if (!enabled()) return;
  NoteEntry entry;
  entry.time_us = tracer_->clock()->NowMicros();
  entry.text = std::move(note);
  std::lock_guard<std::mutex> lock(mu_);
  notes_.push_back(std::move(entry));
  while (notes_.size() > max_notes_) notes_.pop_front();
}

std::string FlightRecorder::Render(const std::string& reason) const {
  std::string out = "=== stethoscope flight recorder ===\n";
  out += "reason: " + reason + "\n";

  {
    std::lock_guard<std::mutex> lock(mu_);
    out += StrFormat("-- notes (%zu most recent) --\n", notes_.size());
    for (const NoteEntry& note : notes_) {
      out += StrFormat("  [%lld us] %s\n",
                       static_cast<long long>(note.time_us),
                       note.text.c_str());
    }
  }

  std::vector<SpanRecord> spans = tracer_->Snapshot();
  size_t first = spans.size() > max_spans_ ? spans.size() - max_spans_ : 0;
  out += StrFormat("-- spans (%zu most recent of %lld recorded) --\n",
                   spans.size() - first,
                   static_cast<long long>(tracer_->total_recorded()));
  for (size_t i = first; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    out += StrFormat("  %-10s tid=%-2d start=%-10lld dur=%-8lld %s",
                     span.cat.c_str(), span.tid,
                     static_cast<long long>(span.start_us),
                     static_cast<long long>(span.dur_us), span.name.c_str());
    if (span.pc >= 0) out += StrFormat(" (pc=%d)", span.pc);
    out += '\n';
  }

  out += "-- metrics --\n";
  out += registry_->ExpositionText();
  out += "=== end flight recorder ===\n";
  return out;
}

void FlightRecorder::Dump(const std::string& reason) {
  const int64_t ordinal = dumps_.fetch_add(1, std::memory_order_relaxed) + 1;
  std::string rendered = Render(reason);
  std::lock_guard<std::mutex> lock(mu_);
  if (!out_dir_.empty()) {
    // One bundle file per dump, named by ordinal so repeated incidents
    // never overwrite each other and names stay clock-independent.
    const std::string path =
        StrFormat("%s/flight_%04lld.txt", out_dir_.c_str(),
                  static_cast<long long>(ordinal));
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      std::fputs(rendered.c_str(), f);
      std::fclose(f);
      return;
    }
    // Unwritable directory: fall through to the stream output so the black
    // box is never lost silently.
  }
  std::FILE* f = out_ != nullptr ? out_ : stderr;
  std::fputs(rendered.c_str(), f);
  std::fflush(f);
}

Status FlightRecorder::SetOutputFile(const std::string& path) {
  std::FILE* next = nullptr;
  if (!path.empty()) {
    next = std::fopen(path.c_str(), "w");
    if (next == nullptr) {
      return Status::IoError("cannot open flight-recorder output '" + path +
                             "'");
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (out_ != nullptr) std::fclose(out_);
  out_ = next;
  return Status::OK();
}

Status FlightRecorder::SetOutputDir(const std::string& dir) {
  std::lock_guard<std::mutex> lock(mu_);
  out_dir_ = dir;
  return Status::OK();
}

std::string FlightRecorder::NextBundlePath() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (out_dir_.empty()) return "";
  return StrFormat("%s/flight_%04lld.txt", out_dir_.c_str(),
                   static_cast<long long>(
                       dumps_.load(std::memory_order_relaxed) + 1));
}

FlightRecorder* FlightRecorder::Default() {
  static FlightRecorder* recorder = [] {
    auto* r = new FlightRecorder(Registry::Default(), Tracer::Default(),
                                 /*max_notes=*/64,
                                 /*max_spans=*/48);
    if (const char* dir = std::getenv("STETHO_FLIGHT_DIR");
        dir != nullptr && dir[0] != '\0') {
      (void)r->SetOutputDir(dir);
    }
    return r;
  }();
  return recorder;
}

}  // namespace stetho::obs
