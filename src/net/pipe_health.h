#ifndef STETHO_NET_PIPE_HEALTH_H_
#define STETHO_NET_PIPE_HEALTH_H_

#include <cstdint>
#include <mutex>
#include <set>
#include <string>

#include "profiler/event.h"

namespace stetho::net {

/// Sentinel for "no emit→ingest clock-offset estimate yet".
inline constexpr int64_t kNoClockOffset = 0x7fffffffffffffff;

/// How far behind the high-water mark a hole may trail before StreamHealth
/// declares it lost instead of late: wider than the reordering of a
/// loopback or LAN UDP path, and the bound on open holes, so an arrival
/// with a wild sequence number costs O(window), not O(jump).
inline constexpr int64_t kReorderWindow = 256;

/// Point-in-time picture of one stream's end-to-end delivery health, built
/// from the profiler's per-event global sequence numbers
/// (profiler::TraceEvent::event). All counts are monotone over the life of
/// the accountant: once a sequence number is declared lost it stays lost
/// even if the datagram later materializes (it is then counted reordered,
/// not resurrected — renderers acted on its absence already).
struct PipeHealthSummary {
  int64_t observed = 0;     ///< distinct sequence numbers seen
  int64_t duplicated = 0;   ///< arrivals of an already-seen sequence number
  int64_t reordered = 0;    ///< late arrivals that filled (or trailed) a gap
  int64_t lost = 0;         ///< gaps aged past the reorder window / finalized
  int64_t pending = 0;      ///< open gaps still inside the reorder window
  int64_t min_seq = -1;     ///< smallest sequence number seen (-1 = none)
  int64_t max_seq = -1;     ///< largest sequence number seen
  /// Estimated emit→ingest clock offset in microseconds: the minimum
  /// (ingest − emit) delta over all timestamped arrivals, i.e. the offset
  /// assuming at least one datagram experienced ~zero queueing delay.
  /// kNoClockOffset until a timestamped event arrives.
  int64_t clock_offset_us = kNoClockOffset;
  int64_t last_latency_us = 0;  ///< offset-corrected delay of the newest event
  int64_t max_latency_us = 0;   ///< worst offset-corrected delay seen
  int64_t newest_emit_us = 0;   ///< largest TraceEvent::time_us seen

  /// Sequence numbers the emitter produced over the observed span
  /// (saturating at INT64_MAX).
  int64_t expected() const {
    if (max_seq < min_seq || min_seq < 0) return 0;
    return max_seq - min_seq + (max_seq - min_seq < INT64_MAX ? 1 : 0);
  }
  /// (lost + still-pending) / expected; 0 when nothing arrived yet.
  double loss_ratio() const {
    int64_t n = expected();
    return n > 0 ? (static_cast<double>(lost) + static_cast<double>(pending)) /
                       static_cast<double>(n)
                 : 0.0;
  }
  /// One status line: "pipe: 380 ok, 19 lost (4.8%), 2 reord, 0 dup, ...".
  std::string ToString() const;
};

/// Per-stream gap/reorder/duplicate accountant over the profiler's global
/// event sequence. The emitter's contract (profiler::Profiler::EmitImpl)
/// is that delivered events carry a contiguous sequence, so any hole the
/// receiver observes is transport loss, any backwards arrival a reorder,
/// and any repeat a duplicate.
///
/// Algorithm: a skipped sequence number within kReorderWindow of the
/// high-water mark opens a pending gap, one further behind is lost (so is
/// a gap the mark leaves more than the window behind; monotone — see
/// PipeHealthSummary, `lost` saturates at INT64_MAX). An arrival that fills
/// a pending gap counts as a reorder, one at an already-seen number as a
/// duplicate. Finalize() closes the remaining gaps at end of stream.
///
/// Process-wide mirrors: every transition bumps
/// stetho_pipe_{lost,reordered,duplicated}_total, and timestamped arrivals
/// feed stetho_pipe_latency_usec / ObserveStaleness() feeds
/// stetho_pipe_staleness_usec. Thread-safe; one mutex, O(log window) per
/// event and O(window log window) per skip.
class StreamHealth {
 public:
  /// Accounts one arrival. `ingest_us` is the receiver clock at ingest and
  /// feeds the offset/latency estimate; pass a negative value when the
  /// receiver did not read a clock (loss accounting still runs — the obs
  /// kill-switch philosophy: counting is free, clocks are opt-in).
  void Observe(const profiler::TraceEvent& event, int64_t ingest_us = -1);

  /// Records how stale the rendered picture is at `now_us` (receiver
  /// clock): now − offset − newest emit, into stetho_pipe_staleness_usec.
  /// No-op until the offset is known.
  void ObserveStaleness(int64_t now_us);

  /// End of stream: every still-open gap becomes a loss. Idempotent;
  /// further arrivals (late stragglers) count as reorders.
  void Finalize();

  PipeHealthSummary Snapshot() const;

 private:
  /// Accounts the holes strictly between `lo` and `hi` (lo < hi <=
  /// high-water mark): those within the window become pending gaps, the
  /// rest are lost.
  void OpenHolesLocked(int64_t lo, int64_t hi);
  void AgeOutLocked();
  void AddLostLocked(uint64_t holes);

  mutable std::mutex mu_;
  std::set<int64_t> pending_;  // open gaps, ascending
  PipeHealthSummary sum_;
  bool any_ = false;
};

}  // namespace stetho::net

#endif  // STETHO_NET_PIPE_HEALTH_H_
