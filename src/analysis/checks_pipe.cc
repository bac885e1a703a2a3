#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analysis/checks.h"
#include "analysis/emitter.h"
#include "common/string_util.h"

namespace stetho::analysis {

using profiler::TraceEvent;

namespace {

/// How many individual findings a single run reports before collapsing the
/// rest into one summary diagnostic (a badly torn trace should not produce
/// thousands of lines).
constexpr int kMaxDetailed = 8;

// ---------------------------------------------------------------------------
// trace-sequence-gap
// ---------------------------------------------------------------------------

/// The profiler numbers delivered events contiguously (profiler/event.h):
/// a recorded trace with holes lost events in transport or capture, one
/// with repeats ingested duplicates, and one whose file order regresses
/// was reordered in flight (legitimate for UDP captures, hence a note).
/// This is the offline twin of the live net::StreamHealth accountant.
class TraceSequenceGapCheck final : public Check {
 public:
  const char* id() const override { return "trace-sequence-gap"; }
  Severity ceiling() const override { return Severity::kError; }
  const char* description() const override {
    return "recorded event sequence numbers are contiguous, unique, and "
           "monotone (holes = transport loss, repeats = duplicates)";
  }
  unsigned needs() const override { return kNeedsTrace; }

  void Run(const CheckContext& ctx,
           std::vector<Diagnostic>* out) const override {
    Emitter emit(id(), out);
    const std::vector<TraceEvent>& events = *ctx.trace;
    if (events.empty()) return;

    // Duplicates: every sequence number appears exactly once.
    std::map<int64_t, int> count;
    int64_t min_seq = events.front().event;
    int64_t max_seq = events.front().event;
    int64_t regressions = 0;
    int64_t prev_max = events.front().event;
    for (size_t i = 0; i < events.size(); ++i) {
      const TraceEvent& e = events[i];
      ++count[e.event];
      min_seq = std::min(min_seq, e.event);
      max_seq = std::max(max_seq, e.event);
      if (i > 0) {
        if (e.event < prev_max) ++regressions;
        prev_max = std::max(prev_max, e.event);
      }
    }
    int dup_reported = 0;
    int64_t dup_total = 0;
    for (const auto& [seq, n] : count) {
      if (n <= 1) continue;
      dup_total += n - 1;
      if (dup_reported < kMaxDetailed) {
        ++dup_reported;
        emit.Emit(Severity::kError, -1, -1,
                  StrFormat("sequence number %lld appears %d times",
                            static_cast<long long>(seq), n),
                  "duplicated delivery or a trace file merged with itself; "
                  "the profiler assigns each delivered event a unique "
                  "sequence number");
      }
    }
    if (dup_total > dup_reported) {
      emit.Emit(Severity::kError, -1, -1,
                StrFormat("%lld duplicated sequence numbers in total (first "
                          "%d reported individually)",
                          static_cast<long long>(dup_total), dup_reported),
                "");
    }

    // Gaps: the span [min, max] should be fully populated. The ids come
    // from a file, so the span is exact in unsigned arithmetic: max - min
    // fits in 64 bits, and only the full int64 range spans 2^64 numbers.
    const uint64_t span = static_cast<uint64_t>(max_seq) -
                          static_cast<uint64_t>(min_seq);
    const uint64_t missing = span - (count.size() - 1);
    if (missing > 0) {
      std::string holes;
      int listed = 0;
      // min and max are present, so every hole lies strictly between them.
      for (int64_t q = min_seq + 1; q < max_seq && listed < kMaxDetailed;
           ++q) {
        if (count.find(q) != count.end()) continue;
        holes += holes.empty() ? "" : ", ";
        holes += StrFormat("%lld", static_cast<long long>(q));
        ++listed;
      }
      const std::string expected =
          span == UINT64_MAX
              ? std::string("18446744073709551616")  // 2^64
              : StrFormat("%llu", static_cast<unsigned long long>(span + 1));
      emit.Emit(
          Severity::kWarning, -1, -1,
          StrFormat("%llu of %s sequence numbers missing (first holes: %s)",
                    static_cast<unsigned long long>(missing),
                    expected.c_str(), holes.c_str()),
          "events were lost between profiler emission and this capture "
          "(UDP drop, sink overflow, or a truncated file); per-pc pairing "
          "and byte accounting downstream run on partial data");
    }

    // Regressions in file order: reordered delivery. Legitimate for a raw
    // UDP capture, so a note — but replays that assume emission order
    // (pair-sequence coloring, HB clocks) should sort by `event` first.
    if (regressions > 0) {
      emit.Emit(Severity::kNote, -1, -1,
                StrFormat("%lld events recorded out of emission order",
                          static_cast<long long>(regressions)),
                "sort by the event field before order-sensitive analysis, "
                "or record via a sink that restores order");
    }
  }
};

}  // namespace

std::unique_ptr<Check> MakeTraceSequenceGapCheck() {
  return std::make_unique<TraceSequenceGapCheck>();
}

}  // namespace stetho::analysis
