// The memory-lifetime check family, built on analysis/liveness.h: the
// static footprint model predicts how many bytes a plan will hold live,
// and these checks turn that prediction into lint findings — a peak that
// exceeds the budget or blows up against the input (memory-blowup), a
// heavy BAT held live long after its last consumer could have run
// (live-range-bloat), and, with a trace, the conformance contract between
// the model and the engine's own live-byte accountant
// (footprint-conformance: the static bounds must dominate the recorded
// peak, and a byte model looser than 2x on the observed schedule is too
// weak to gate admission on).

#include <algorithm>
#include <set>
#include <vector>

#include "analysis/checks.h"
#include "analysis/emitter.h"
#include "analysis/liveness.h"
#include "common/string_util.h"

namespace stetho::analysis {
namespace {

using mal::Program;
using profiler::TraceEvent;

// ---------------------------------------------------------------------------
// memory-blowup
// ---------------------------------------------------------------------------

/// Peaks beyond this multiple of the bytes bound from base tables are a
/// blowup finding even without a configured budget: joins and appends that
/// square the input should be visible before execution.
constexpr int64_t kBlowupFactor = 32;

class MemoryBlowupCheck final : public Check {
 public:
  const char* id() const override { return "memory-blowup"; }
  Severity ceiling() const override { return Severity::kWarning; }
  const char* description() const override {
    return "the predicted sequential memory peak stays within "
           "STETHO_MEM_BUDGET (when set), and no exact-cardinality "
           "register provably costs 32x the bytes bound from base tables";
  }
  unsigned needs() const override { return kNeedsProgram; }

  void Run(const CheckContext& ctx, std::vector<Diagnostic>* out) const override {
    const Program& p = *ctx.program;
    Emitter emit(id(), out);
    const MemoryReport& report = ctx.facts->memory();
    if (!report.bounded) {
      // Name the first unbounded range so the missing annotation is
      // actionable; without a bound, no budget comparison is meaningful.
      for (const LiveRange& r : report.ranges) {
        if (r.bytes == kUnboundedBytes) {
          emit.Emit(Severity::kNote, r.def_pc, r.var,
                    StrFormat("peak footprint is unbounded: %s has no "
                              "cardinality upper bound",
                              VarName(p, r.var).c_str()),
                    "annotate the source cardinality (AnnotateCardinality) "
                    "so the footprint model can bound the plan");
          break;
        }
      }
      return;
    }
    int64_t budget = EnvMemBudgetBytes();
    if (budget > 0 && report.seq_peak_bytes > budget) {
      emit.Emit(Severity::kWarning, report.seq_peak_pc, -1,
                StrFormat("predicted sequential peak %s exceeds the "
                          "STETHO_MEM_BUDGET of %s",
                          FormatBytes(report.seq_peak_bytes).c_str(),
                          FormatBytes(budget).c_str()),
                "run mal_lint --memory for the live-byte profile; the "
                "memory_reorder pass may shrink the peak");
    }
    // Blowup-vs-input only fires on EXACT cardinalities: a worst-case join
    // bound of |L|x|R| is honestly astronomical on any realistic plan, but
    // a register whose interval is a point provably WILL cost its bytes.
    for (const LiveRange& r : report.ranges) {
      if (!r.exact || r.bytes == kUnboundedBytes) continue;
      if (report.input_bytes > 0 &&
          r.bytes / kBlowupFactor > report.input_bytes) {
        emit.Emit(Severity::kWarning, r.def_pc, r.var,
                  StrFormat("%s provably materializes %s (%lld rows) — more "
                            "than %lldx the %s bound from base columns",
                            VarName(p, r.var).c_str(),
                            FormatBytes(r.bytes).c_str(),
                            static_cast<long long>(r.card_hi),
                            static_cast<long long>(kBlowupFactor),
                            FormatBytes(report.input_bytes).c_str()),
                  "look for joins or appends that multiply cardinalities, "
                  "or a wrong cardinality annotation");
      }
    }
  }
};

// ---------------------------------------------------------------------------
// live-range-bloat
// ---------------------------------------------------------------------------

/// Ranges below this footprint are never bloat findings (holding a few KiB
/// longer than necessary is noise, not a hazard).
constexpr int64_t kBloatMinBytes = 64 * 1024;
/// A range must also carry at least 1/kBloatPeakFraction of the sequential
/// peak: plans interleave per-column pipelines in textual order, so small
/// registers routinely outlive their earliest legal release without moving
/// the peak at all. Only ranges that dominate the footprint are findings.
constexpr int64_t kBloatPeakFraction = 8;
/// Minimum number of pcs between where the last consumer could legally run
/// (right after its latest producer other than the bloated register) and
/// where it actually sits.
constexpr int kBloatMinSlack = 8;

class LiveRangeBloatCheck final : public Check {
 public:
  const char* id() const override { return "live-range-bloat"; }
  Severity ceiling() const override { return Severity::kWarning; }
  const char* description() const override {
    return "no heavy BAT stays live far past the point where its last "
           "consumer could legally have run";
  }
  unsigned needs() const override { return kNeedsProgram; }

  void Run(const CheckContext& ctx, std::vector<Diagnostic>* out) const override {
    const Program& p = *ctx.program;
    Emitter emit(id(), out);
    const MemoryReport& report = ctx.facts->memory();
    const mal::Dependencies& deps = ctx.facts->deps();
    for (const LiveRange& r : report.ranges) {
      if (r.bytes == kUnboundedBytes || r.bytes < kBloatMinBytes) continue;
      if (r.bytes < report.seq_peak_bytes / kBloatPeakFraction) continue;
      if (r.last_use_pc < 0) continue;
      if (static_cast<size_t>(r.last_use_pc) >= deps.size()) continue;
      // Earliest pc at which `r` could legally be RELEASED: its last
      // consumer can run no earlier than right after the latest of its
      // other producers, and no earlier than the register's other
      // consumers. Everything between that point and where the last
      // consumer actually sits holds `r` live for no dataflow reason.
      int floor_pc = r.def_pc;
      for (int producer : deps.producers(r.last_use_pc)) {
        if (producer != r.def_pc) floor_pc = std::max(floor_pc, producer);
      }
      for (int use : deps.readers(r.var)) {
        if (use != r.last_use_pc) floor_pc = std::max(floor_pc, use);
      }
      int earliest = floor_pc + 1;
      int slack = r.last_use_pc - earliest;
      if (slack < kBloatMinSlack) continue;
      // Only a finding when the register is held ACROSS the sequential
      // peak although dataflow would allow releasing it before: that is
      // the case where an earlier last use provably shrinks the peak.
      // Peak-neutral slack is layout noise the optimizer rightly ignores.
      if (!(r.def_pc <= report.seq_peak_pc && earliest < report.seq_peak_pc &&
            report.seq_peak_pc <= r.last_use_pc)) {
        continue;
      }
      // Mid-pipeline the order is transient (memory_reorder has not run
      // yet), so only note it; in a final plan it is a real finding.
      emit.Emit(ctx.in_pipeline ? Severity::kNote : Severity::kWarning,
                r.def_pc, r.var,
                StrFormat("%s (%s) stays live until pc %d but its last "
                          "consumer could run at pc %d — %d instructions "
                          "hold it for no dataflow reason",
                          VarName(p, r.var).c_str(),
                          FormatBytes(r.bytes).c_str(), r.last_use_pc,
                          earliest, slack),
                "let the memory_reorder pass move the consumer next to its "
                "producers");
    }
  }
};

// ---------------------------------------------------------------------------
// footprint-conformance
// ---------------------------------------------------------------------------

/// Replays the byte model over the schedule the trace actually took:
/// result bytes land at each pc's `done` event (the moment the engine's
/// accountant charges them) and a register is released once its last
/// consumer's `done` has passed — exactly the engine's release rule, on
/// the observed completion order instead of program order. Because every
/// per-range bound dominates what the register really cost, this peak
/// dominates the recorded rss peak schedule-for-schedule, and its ratio
/// to the recorded peak measures pure byte-model calibration with no
/// schedule conservatism mixed in.
int64_t ScheduleMatchedPeak(const Program& p, const MemoryReport& report,
                            const std::vector<TraceEvent>& trace) {
  const size_t nvars = p.num_variables();
  std::vector<int64_t> var_bytes(nvars, 0);
  std::vector<int> remaining(nvars, 0);
  std::vector<char> has_range(nvars, 0);
  for (const LiveRange& r : report.ranges) {
    if (r.var < 0 || static_cast<size_t>(r.var) >= nvars) continue;
    var_bytes[static_cast<size_t>(r.var)] = r.bytes;
    remaining[static_cast<size_t>(r.var)] = r.num_consumers;
    has_range[static_cast<size_t>(r.var)] = 1;
  }
  std::vector<const TraceEvent*> dones;
  for (const TraceEvent& e : trace) {
    if (e.state == profiler::EventState::kDone) dones.push_back(&e);
  }
  std::sort(dones.begin(), dones.end(),
            [](const TraceEvent* a, const TraceEvent* b) {
              if (a->time_us != b->time_us) return a->time_us < b->time_us;
              return a->event < b->event;
            });
  int64_t live = 0;
  int64_t peak = 0;
  for (const TraceEvent* e : dones) {
    if (e->pc < 0 || static_cast<size_t>(e->pc) >= p.size()) continue;
    const mal::Instruction& ins = p.instruction(e->pc);
    for (int v : ins.results) {
      if (v >= 0 && static_cast<size_t>(v) < nvars && has_range[static_cast<size_t>(v)]) {
        live = SaturatingAddBytes(live, var_bytes[static_cast<size_t>(v)]);
      }
    }
    peak = std::max(peak, live);
    for (const mal::Argument& a : ins.args) {
      if (a.kind != mal::Argument::Kind::kVar) continue;
      if (a.var < 0 || static_cast<size_t>(a.var) >= nvars) continue;
      size_t v = static_cast<size_t>(a.var);
      if (has_range[v] && remaining[v] > 0 && --remaining[v] == 0) {
        live -= var_bytes[v];
      }
    }
    for (int rv : ins.results) {
      if (rv < 0 || static_cast<size_t>(rv) >= nvars) continue;
      size_t v = static_cast<size_t>(rv);
      if (has_range[v] && remaining[v] == 0) live -= var_bytes[v];
    }
  }
  return peak;
}

class FootprintConformanceCheck final : public Check {
 public:
  const char* id() const override { return "footprint-conformance"; }
  Severity ceiling() const override { return Severity::kError; }
  const char* description() const override {
    return "the any-schedule peak bound and the schedule-matched static "
           "peak both dominate the engine-recorded rss peak, and the "
           "schedule-matched peak stays within 2x of it";
  }
  unsigned needs() const override { return kNeedsProgram | kNeedsTrace; }

  void Run(const CheckContext& ctx, std::vector<Diagnostic>* out) const override {
    const Program& p = *ctx.program;
    Emitter emit(id(), out);
    int64_t recorded = 0;
    int recorded_pc = -1;
    std::set<int> threads;
    for (const TraceEvent& e : *ctx.trace) {
      threads.insert(e.thread);
      if (e.rss_bytes > recorded) {
        recorded = e.rss_bytes;
        recorded_pc = e.pc;
      }
    }
    int dop = std::max<int>(1, static_cast<int>(threads.size()));
    const MemoryReport& report = ctx.facts->memory();
    int64_t bound = ParallelPeakBound(p, ctx.facts->deps(), report, dop);
    if (!report.bounded || bound == kUnboundedBytes) {
      emit.Emit(Severity::kNote, -1, -1,
                "static peak bound is unbounded — conformance against the "
                "recorded rss peak is not checkable",
                "annotate source cardinalities so the model can bound the "
                "plan");
      return;
    }
    if (recorded > bound) {
      // The model claims to dominate every schedule; a recorded peak above
      // it means the byte accounting or the cardinality domain is lying.
      emit.Emit(Severity::kError, recorded_pc, -1,
                StrFormat("engine recorded a live-byte peak of %s but the "
                          "static upper bound (dop %d) is only %s — the "
                          "accountant or the abstract domain is lying",
                          FormatBytes(recorded).c_str(), dop,
                          FormatBytes(bound).c_str()),
                "diff the per-kernel byte model in analysis/liveness.cc "
                "against Column::MemoryBytes()");
      return;
    }
    // Calibration is judged on the schedule the engine actually took —
    // the any-schedule bound must additionally cover adversarial
    // interleavings (all mitosis pieces' intermediates held at once), so
    // its slack against one observed run says nothing about the byte
    // model itself.
    int64_t sched_peak = ScheduleMatchedPeak(p, report, *ctx.trace);
    if (recorded > sched_peak) {
      emit.Emit(Severity::kError, recorded_pc, -1,
                StrFormat("engine recorded a live-byte peak of %s but the "
                          "byte model replayed over the same schedule only "
                          "reaches %s — a per-kernel byte bound is too low",
                          FormatBytes(recorded).c_str(),
                          FormatBytes(sched_peak).c_str()),
                "diff the per-kernel byte model in analysis/liveness.cc "
                "against Column::MemoryBytes()");
    } else if (recorded > 0 && sched_peak / 2 > recorded) {
      // Informational by design: worst-case bounds on selective or
      // join-heavy plans are legitimately loose. CI turns this note into a
      // hard gate on the recorded example artifacts with --fail-on=note,
      // where the schedule-matched peak is expected to stay within 2x.
      emit.Emit(Severity::kNote, report.seq_peak_pc, -1,
                StrFormat("schedule-matched static peak %s is more than 2x "
                          "the recorded peak %s (dop %d) — the byte model "
                          "is too loose to gate admission on",
                          FormatBytes(sched_peak).c_str(),
                          FormatBytes(recorded).c_str(), dop),
                "tighten the cardinality transfer functions or the "
                "capacity model for the kernels in this plan");
    }
  }
};

}  // namespace

std::unique_ptr<Check> MakeMemoryBlowupCheck() {
  return std::make_unique<MemoryBlowupCheck>();
}
std::unique_ptr<Check> MakeLiveRangeBloatCheck() {
  return std::make_unique<LiveRangeBloatCheck>();
}
std::unique_ptr<Check> MakeFootprintConformanceCheck() {
  return std::make_unique<FootprintConformanceCheck>();
}

}  // namespace stetho::analysis
