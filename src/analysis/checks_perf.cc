#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/checks.h"
#include "analysis/emitter.h"
#include "analysis/perfdiff.h"
#include "common/string_util.h"

namespace stetho::analysis {

using profiler::TraceEvent;

namespace {

/// Individual findings before the rest collapse into one summary line.
constexpr int kMaxDetailed = 8;

// ---------------------------------------------------------------------------
// trace-perf-regression
// ---------------------------------------------------------------------------

/// Compares a recorded trace against the stored cross-run baseline of the
/// same plan shape. A pc regresses by obs::RegressionRatio, as a warning,
/// or as an error from obs::kRegressionErrorRatio on. End-to-end makespan
/// gets the same treatment against the total_usec distribution, so a
/// whole-query slowdown with no single guilty pc still fires. No baseline
/// for the shape is a note — a fresh plan shape is information, not a
/// failure.
class TracePerfRegressionCheck final : public Check {
 public:
  const char* id() const override { return "trace-perf-regression"; }
  Severity ceiling() const override { return Severity::kError; }
  const char* description() const override {
    return "recorded per-pc durations and makespan stay within "
           "median + max(4*MAD, 10us) and 1.5x/2.0x of the stored cross-run "
           "baseline for this plan shape";
  }
  unsigned needs() const override { return kNeedsTrace | kNeedsProfile; }

  void Run(const CheckContext& ctx,
           std::vector<Diagnostic>* out) const override {
    Emitter emit(id(), out);
    const std::vector<TraceEvent>& trace = *ctx.trace;
    if (trace.empty()) return;

    // Key by the executed plan when we have it (exact contract), else by
    // the trace's own statement text (identical mixing, see perfdiff.h).
    const uint64_t shape_hash = ctx.program != nullptr
                                    ? PlanShapeHash(*ctx.program)
                                    : TraceShapeHash(trace);
    std::shared_ptr<const obs::PlanProfile> baseline =
        ctx.profile->Lookup(shape_hash);
    if (baseline == nullptr || baseline->queries == 0) {
      emit.Emit(Severity::kNote, -1, -1,
                StrFormat("no stored baseline for plan shape %016llx "
                          "(profile holds %zu shapes)",
                          static_cast<unsigned long long>(shape_hash),
                          ctx.profile->size()),
                "record a baseline with `mal_lint --write-profile` or let "
                "the server fold completed runs via STETHO_PROFILE_DIR");
      return;
    }

    const obs::QueryObservation observed = ObservationFromTrace(trace);

    int flagged = 0;
    int64_t worst_delta = 0;
    for (const obs::PcSample& sample : observed.pcs) {
      if (sample.pc < 0 ||
          static_cast<size_t>(sample.pc) >= baseline->pcs.size()) {
        continue;  // shape drift; the hash key normally prevents this
      }
      const obs::RobustStat& stat =
          baseline->pcs[static_cast<size_t>(sample.pc)].usec;
      if (stat.count() == 0) continue;
      Severity severity;
      std::string detail;
      if (!Regresses(sample.usec, stat, &severity, &detail)) continue;
      ++flagged;
      worst_delta =
          std::max(worst_delta,
                   sample.usec - static_cast<int64_t>(stat.Median()));
      if (flagged <= kMaxDetailed) {
        std::string stmt =
            ctx.program != nullptr &&
                    static_cast<size_t>(sample.pc) < ctx.program->size()
                ? ctx.program->InstructionToString(
                      ctx.program->instruction(sample.pc))
                : "";
        if (stmt.size() > 48) stmt = stmt.substr(0, 45) + "...";
        emit.Emit(severity, sample.pc, -1,
                  StrFormat("instruction ran %lldus against a baseline of "
                            "%s over %lld runs%s%s",
                            static_cast<long long>(sample.usec),
                            detail.c_str(),
                            static_cast<long long>(stat.count()),
                            stmt.empty() ? "" : " — ", stmt.c_str()),
                  "a data-dependent blowup, a lost optimization, or "
                  "interference on this kernel; `stethoscope diff` against "
                  "a baseline trace localizes the change");
      }
    }
    if (flagged > kMaxDetailed) {
      emit.Emit(Severity::kWarning, -1, -1,
                StrFormat("%d regressed instructions in total (first %d "
                          "reported individually; worst delta %+lldus)",
                          flagged, kMaxDetailed,
                          static_cast<long long>(worst_delta)),
                "");
    }

    // End-to-end: the trace's makespan against the folded total_usec
    // distribution. Catches a uniformly slower run (every pc a little
    // worse, none past its own gate) — and stays silent when a single
    // injected pc already explains the drift only if the totals gate
    // independently clears.
    if (baseline->total_usec.count() > 0 && observed.total_usec > 0) {
      Severity severity;
      std::string detail;
      if (Regresses(observed.total_usec, baseline->total_usec, &severity,
                    &detail)) {
        emit.Emit(severity, -1, -1,
                  StrFormat("query makespan %lldus against a baseline of %s "
                            "over %lld runs",
                            static_cast<long long>(observed.total_usec),
                            detail.c_str(),
                            static_cast<long long>(
                                baseline->total_usec.count())),
                  "the whole schedule slowed down; check the critical-path "
                  "delta in `stethoscope diff` and the admission metrics "
                  "for contention");
      }
    }
  }

 private:
  static bool Regresses(int64_t observed_usec, const obs::RobustStat& stat,
                        Severity* severity, std::string* detail) {
    const double median = stat.Median();
    const double mad = stat.Mad();
    const std::optional<double> ratio =
        obs::RegressionRatio(observed_usec, median, mad);
    if (!ratio.has_value()) return false;
    *severity = *ratio >= obs::kRegressionErrorRatio ? Severity::kError
                                                     : Severity::kWarning;
    *detail = StrFormat("median %.0fus (MAD %.0fus, %.2fx)", median, mad,
                        *ratio);
    return true;
  }
};

}  // namespace

std::unique_ptr<Check> MakeTracePerfRegressionCheck() {
  return std::make_unique<TracePerfRegressionCheck>();
}

}  // namespace stetho::analysis
