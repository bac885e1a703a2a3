// Happens-before analysis tests: vector-clock replay, critical-path
// accounting, and the injected-corruption harness for the five schedule
// checks (trace-dependency-violation, trace-write-race, span-interleaving,
// trace-clock-monotonicity, schedule-serialization). Mirrors
// tests/mutation_test.cc: every corruption class must be caught by the
// check named in its table entry — a silent pass is a test failure — and
// legal shuffled schedules must produce zero findings.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "analysis/checks.h"
#include "analysis/hb.h"
#include "analysis/runner.h"
#include "analysis/trace_index.h"
#include "check_ceilings.h"
#include "common/rng.h"
#include "engine/kernel.h"
#include "mal/program.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "profiler/event.h"

namespace stetho {
namespace {

using analysis::CheckContext;
using analysis::Diagnostic;
using analysis::ExecInterval;
using analysis::ScheduleReport;
using analysis::TraceIndex;
using mal::Argument;
using mal::MalType;
using obs::SpanRecord;
using profiler::EventState;
using profiler::TraceEvent;
using storage::DataType;
using storage::Value;

MalType BatLng() { return MalType::Bat(DataType::kInt64); }

/// A runner loaded with only the five happens-before checks, so findings
/// here are attributable to the new suite (and interference with the other
/// checks is covered by mutation_test's full-suite baseline).
const analysis::Runner& HbRunner() {
  static const analysis::Runner& runner = *[] {
    auto* r = new analysis::Runner();
    r->Add(analysis::MakeTraceDependencyViolationCheck());
    r->Add(analysis::MakeTraceWriteRaceCheck());
    r->Add(analysis::MakeSpanInterleavingCheck());
    r->Add(analysis::MakeTraceClockMonotonicityCheck());
    r->Add(analysis::MakeScheduleSerializationCheck());
    return r;
  }();
  return runner;
}

struct Artifacts {
  mal::Program program;
  std::optional<std::vector<TraceEvent>> trace;
  std::optional<std::vector<SpanRecord>> spans;
};

std::vector<Diagnostic> RunHb(const Artifacts& a) {
  CheckContext ctx;
  ctx.program = &a.program;
  if (a.trace.has_value()) ctx.trace = &a.trace.value();
  if (a.spans.has_value()) ctx.spans = &a.spans.value();
  return HbRunner().Run(ctx);
}

bool HasCheck(const std::vector<Diagnostic>& diags, const std::string& id) {
  return std::any_of(diags.begin(), diags.end(),
                     [&id](const Diagnostic& d) { return d.check_id == id; });
}

/// Diamond DAG: pc0 -> {pc1, pc2} -> pc3. Plan width 2.
mal::Program DiamondPlan() {
  mal::Program p;
  int a = p.AddVariable(BatLng());
  p.Add("bat", "densebat", {a}, {Argument::Const(Value::Int(16))});
  int b = p.AddVariable(BatLng());
  p.Add("bat", "mirror", {b}, {Argument::Var(a)});
  int c = p.AddVariable(BatLng());
  p.Add("bat", "mirror", {c}, {Argument::Var(a)});
  int d = p.AddVariable(BatLng());
  p.Add("batcalc", "add", {d}, {Argument::Var(b), Argument::Var(c)});
  return p;
}

TraceEvent Event(const mal::Program& p, int64_t seq, int64_t time_us, int pc,
                 int thread, EventState state, int64_t usec = 0) {
  TraceEvent e;
  e.event = seq;
  e.time_us = time_us;
  e.pc = pc;
  e.thread = thread;
  e.state = state;
  e.usec = usec;
  e.stmt = p.InstructionToString(p.instruction(pc));
  return e;
}

/// Two-slot parallel execution of DiamondPlan: pc1 on slot 0 and pc2 on
/// slot 1 overlap. Event ids step by 10 so corruptions can renumber one
/// event between two others without colliding.
std::vector<TraceEvent> ParallelDiamondTrace(const mal::Program& p) {
  return {
      Event(p, 0, 1000, 0, 0, EventState::kStart),
      Event(p, 10, 1010, 0, 0, EventState::kDone, 10),
      Event(p, 20, 1020, 1, 0, EventState::kStart),
      Event(p, 30, 1030, 2, 1, EventState::kStart),
      Event(p, 40, 1040, 1, 0, EventState::kDone, 20),
      Event(p, 50, 1050, 2, 1, EventState::kDone, 5),
      Event(p, 60, 1060, 3, 0, EventState::kStart),
      Event(p, 70, 1070, 3, 0, EventState::kDone, 10),
  };
}

/// Replays `trace` against `p` through the trace's index.
ScheduleReport Replay(const mal::Program& p,
                      const std::vector<TraceEvent>& trace) {
  return analysis::AnalyzeSchedule(p, p.BuildDependencies(),
                                   TraceIndex(trace));
}

std::vector<TraceEvent>::iterator FindEvent(std::vector<TraceEvent>& trace,
                                            int pc, EventState state) {
  return std::find_if(trace.begin(), trace.end(),
                      [pc, state](const TraceEvent& e) {
                        return e.pc == pc && e.state == state;
                      });
}

/// Renumbers the (pc_a, state_a) event to sit immediately before the
/// (pc_b, state_b) event in both emission order and time.
void MoveBefore(std::vector<TraceEvent>* trace, int pc_a, EventState state_a,
                int pc_b, EventState state_b) {
  auto a = FindEvent(*trace, pc_a, state_a);
  auto b = FindEvent(*trace, pc_b, state_b);
  ASSERT_NE(a, trace->end());
  ASSERT_NE(b, trace->end());
  a->event = b->event - 1;
  a->time_us = b->time_us - 1;
}

// ---------------------------------------------------------------------------
// Vector clocks and the replay itself
// ---------------------------------------------------------------------------

TEST(VectorClockTest, TickJoinLessEq) {
  analysis::VectorClock a(2), b(2);
  EXPECT_TRUE(a.LessEq(b));
  a.Tick(0);
  EXPECT_FALSE(a.LessEq(b));
  EXPECT_TRUE(b.LessEq(a));
  b.Tick(1);
  b.Tick(1);
  analysis::VectorClock joined = a;
  joined.Join(b);
  EXPECT_EQ(joined.tick(0), 1);
  EXPECT_EQ(joined.tick(1), 2);
  EXPECT_TRUE(a.LessEq(joined));
  EXPECT_TRUE(b.LessEq(joined));
  // Different widths compare as if padded with zeros.
  analysis::VectorClock narrow(1);
  EXPECT_TRUE(narrow.LessEq(joined));
}

// ---------------------------------------------------------------------------
// The trace index every start/done consumer reads
// ---------------------------------------------------------------------------

TEST(TraceIndexTest, RestoresEmissionOrder) {
  // A reordering transport delivered ids 3, 0, 2, 1; equal ids keep their
  // arrival order.
  mal::Program p = DiamondPlan();
  std::vector<TraceEvent> trace;
  for (int64_t id : {3, 0, 2, 1, 2}) {
    trace.push_back(Event(p, id, id, 0, 0, EventState::kDone));
  }
  trace[4].thread = 7;
  TraceIndex index(trace);
  ASSERT_EQ(index.size(), trace.size());
  const std::vector<int64_t> ids = {0, 1, 2, 2, 3};
  for (size_t i = 0; i < index.size(); ++i) {
    EXPECT_EQ(index.event(i).event, ids[i]) << i;
  }
  EXPECT_EQ(index.event(2).thread, 0);
  EXPECT_EQ(index.event(3).thread, 7);
}

TEST(TraceIndexTest, PairsFirstStartAndDonePerPc) {
  mal::Program p = DiamondPlan();
  std::vector<TraceEvent> trace = ParallelDiamondTrace(p);
  trace.push_back(Event(p, 80, 1080, 3, 0, EventState::kDone, 1));  // surplus
  TraceEvent no_pc = Event(p, 5, 1005, 0, 2, EventState::kStart);
  no_pc.pc = -1;
  trace.push_back(no_pc);
  std::swap(trace[0], trace[5]);  // file order differs from emission order
  TraceIndex index(trace);

  ASSERT_EQ(index.pcs().size(), 4u);  // the negative pc belongs to none
  const analysis::PcEvents* pc0 = index.Find(0);
  ASSERT_NE(pc0, nullptr);
  EXPECT_EQ(index.event(static_cast<size_t>(pc0->first_start)).event, 0);
  EXPECT_EQ(index.event(static_cast<size_t>(pc0->first_done)).event, 10);
  const analysis::PcEvents* pc3 = index.Find(3);
  ASSERT_NE(pc3, nullptr);
  EXPECT_EQ(pc3->starts, 1);
  EXPECT_EQ(pc3->dones, 2);
  EXPECT_EQ(index.event(static_cast<size_t>(pc3->first_done)).event, 70);
  EXPECT_EQ(index.Find(4), nullptr);

  // Threads in order of first appearance, numbered densely.
  EXPECT_EQ(index.threads(), (std::vector<int>{0, 2, 1}));
  for (size_t i = 0; i < index.size(); ++i) {
    EXPECT_EQ(index.threads()[index.thread_slot(i)], index.event(i).thread);
  }
  EXPECT_EQ(index.peak_open(), 2);   // pc1 and pc2 overlap
  EXPECT_EQ(index.Makespan(), 70);   // first start 1000, first done 1070
}

TEST(TraceIndexTest, PeakCountsOpenPairsInEmissionOrder) {
  mal::Program p = DiamondPlan();
  // Serial in emission order although the file lists both starts first.
  std::vector<TraceEvent> trace = {
      Event(p, 0, 0, 1, 0, EventState::kStart),
      Event(p, 2, 20, 2, 0, EventState::kStart),
      Event(p, 1, 10, 1, 0, EventState::kDone, 10),
      Event(p, 3, 30, 2, 0, EventState::kDone, 10),
  };
  EXPECT_EQ(TraceIndex(trace).peak_open(), 1);
  std::vector<TraceEvent> empty;
  TraceIndex none(empty);
  EXPECT_EQ(none.peak_open(), 0);
  EXPECT_EQ(none.Makespan(), 0);
  EXPECT_TRUE(none.threads().empty());
}

TEST(TraceIndexTest, ConcurrencyAtStartSweepsInTimeOrder) {
  std::vector<ExecInterval> intervals(4);
  intervals[0] = {0, 10};
  intervals[1] = {10, 20};  // meets interval 0 at t=10: overlapped
  intervals[2] = {5, ExecInterval::kNeverDone};
  intervals[3] = {30, 40};  // interval 2 is still open
  EXPECT_EQ(analysis::ConcurrencyAtStart(intervals),
            (std::vector<int>{1, 3, 2, 2}));
  EXPECT_TRUE(analysis::ConcurrencyAtStart({}).empty());
}

TEST(AnalyzeScheduleTest, CleanParallelRunHasNoViolations) {
  mal::Program p = DiamondPlan();
  ScheduleReport report = Replay(p, ParallelDiamondTrace(p));
  EXPECT_TRUE(report.violations.empty());
  EXPECT_TRUE(report.inverted.empty());
  EXPECT_TRUE(report.duplicates.empty());
  EXPECT_EQ(report.plan_width, 2);
  EXPECT_EQ(report.max_observed_concurrency, 2);
  EXPECT_EQ(report.completed_executions, 4);
  EXPECT_EQ(report.threads.size(), 2u);
}

TEST(AnalyzeScheduleTest, CriticalPathMakespanAndSlack) {
  mal::Program p = DiamondPlan();
  ScheduleReport report = Replay(p, ParallelDiamondTrace(p));
  // Weights 10/20/5/10: the longest chain is pc0 -> pc1 -> pc3 = 40 us.
  ASSERT_EQ(report.critical_path.size(), 3u);
  EXPECT_EQ(report.critical_path[0].pc, 0);
  EXPECT_EQ(report.critical_path[1].pc, 1);
  EXPECT_EQ(report.critical_path[2].pc, 3);
  EXPECT_EQ(report.critical_path_usec, 40);
  EXPECT_EQ(report.makespan_usec, 70);  // 1070 - 1000
  EXPECT_EQ(report.slack_usec, 30);
  std::string rendered = analysis::FormatScheduleReport(report, p);
  EXPECT_NE(rendered.find("critical path"), std::string::npos);
  EXPECT_NE(rendered.find("bat.mirror"), std::string::npos);
}

TEST(AnalyzeScheduleTest, HappensBeforeOrdersEdgesAndSlots) {
  mal::Program p = DiamondPlan();
  ScheduleReport r = Replay(p, ParallelDiamondTrace(p));
  // Producer -> consumer edges the schedule respected are ordered.
  EXPECT_TRUE(analysis::HappensBefore(r.executions[0], r.executions[1]));
  EXPECT_TRUE(analysis::HappensBefore(r.executions[0], r.executions[3]));
  EXPECT_TRUE(analysis::HappensBefore(r.executions[2], r.executions[3]));
  // The two middle instructions overlap on different slots: unordered.
  EXPECT_FALSE(analysis::HappensBefore(r.executions[1], r.executions[2]));
  EXPECT_FALSE(analysis::HappensBefore(r.executions[2], r.executions[1]));
  // Nothing happens-before its own producer.
  EXPECT_FALSE(analysis::HappensBefore(r.executions[3], r.executions[0]));
}

TEST(AnalyzeScheduleTest, UpdatesHbMetrics) {
  obs::Registry* registry = obs::Registry::Default();
  mal::Program p = DiamondPlan();
  // Metrics are process-global: delta-assert around the call.
  Replay(p, ParallelDiamondTrace(p));  // ensure created
  int64_t replays =
      registry->CounterValue("stetho_hb_replays_total").value();
  int64_t violations =
      registry->CounterValue("stetho_hb_violations_total").value();
  std::vector<TraceEvent> bad = ParallelDiamondTrace(p);
  MoveBefore(&bad, 3, EventState::kStart, 1, EventState::kDone);
  ScheduleReport report = Replay(p, bad);
  EXPECT_FALSE(report.violations.empty());
  EXPECT_EQ(registry->CounterValue("stetho_hb_replays_total").value(),
            replays + 1);
  EXPECT_GT(registry->CounterValue("stetho_hb_violations_total").value(),
            violations);
}

// ---------------------------------------------------------------------------
// Injected-corruption catalog: every class caught, no silent passes
// ---------------------------------------------------------------------------

struct HbMutation {
  std::string name;
  std::string expected_check;
  std::function<Artifacts()> build;
};

Artifacts WithTrace(
    const std::function<void(std::vector<TraceEvent>*)>& corrupt) {
  Artifacts a;
  a.program = DiamondPlan();
  std::vector<TraceEvent> trace = ParallelDiamondTrace(a.program);
  corrupt(&trace);
  a.trace = std::move(trace);
  return a;
}

std::vector<HbMutation> MutationCatalog() {
  std::vector<HbMutation> catalog;

  catalog.push_back(
      {"swapped-start-done", "trace-dependency-violation", [] {
         return WithTrace([](std::vector<TraceEvent>* t) {
           // pc3's done is renumbered before its start: the interval runs
           // backwards.
           std::swap(FindEvent(*t, 3, EventState::kStart)->event,
                     FindEvent(*t, 3, EventState::kDone)->event);
         });
       }});
  catalog.push_back(
      {"reordered-producer-consumer-same-slot", "trace-dependency-violation",
       [] {
         return WithTrace([](std::vector<TraceEvent>* t) {
           // pc1 (slot 0) starts before its producer pc0 (slot 0) is done.
           MoveBefore(t, 1, EventState::kStart, 0, EventState::kDone);
         });
       }});
  catalog.push_back(
      {"reordered-producer-consumer-cross-slot", "trace-dependency-violation",
       [] {
         return WithTrace([](std::vector<TraceEvent>* t) {
           // pc3 (slot 0) starts before its producer pc2 (slot 1) is done.
           MoveBefore(t, 3, EventState::kStart, 2, EventState::kDone);
         });
       }});
  catalog.push_back(
      {"producer-done-dropped", "trace-dependency-violation", [] {
         return WithTrace([](std::vector<TraceEvent>* t) {
           t->erase(FindEvent(*t, 1, EventState::kDone));
         });
       }});
  catalog.push_back(
      {"consumer-start-dropped", "trace-dependency-violation", [] {
         return WithTrace([](std::vector<TraceEvent>* t) {
           // A done with no start: the interval is inverted/incomplete.
           t->erase(FindEvent(*t, 3, EventState::kStart));
         });
       }});
  catalog.push_back(
      {"duplicated-pc-pair", "trace-dependency-violation", [] {
         return WithTrace([](std::vector<TraceEvent>* t) {
           TraceEvent start = *FindEvent(*t, 1, EventState::kStart);
           TraceEvent done = *FindEvent(*t, 1, EventState::kDone);
           start.event += 1000;
           start.time_us += 1000;
           done.event += 1000;
           done.time_us += 1000;
           t->push_back(start);
           t->push_back(done);
         });
       }});
  catalog.push_back(
      {"duplicated-start", "trace-dependency-violation", [] {
         return WithTrace([](std::vector<TraceEvent>* t) {
           TraceEvent start = *FindEvent(*t, 2, EventState::kStart);
           start.event += 1000;
           start.time_us += 1000;
           t->push_back(start);
         });
       }});
  catalog.push_back(
      {"duplicated-done", "trace-dependency-violation", [] {
         return WithTrace([](std::vector<TraceEvent>* t) {
           TraceEvent done = *FindEvent(*t, 2, EventState::kDone);
           done.event += 1000;
           done.time_us += 1000;
           t->push_back(done);
         });
       }});
  catalog.push_back(
      {"clock-regression-slot0", "trace-clock-monotonicity", [] {
         return WithTrace([](std::vector<TraceEvent>* t) {
           FindEvent(*t, 3, EventState::kDone)->time_us = 1;
         });
       }});
  catalog.push_back(
      {"clock-regression-slot1", "trace-clock-monotonicity", [] {
         return WithTrace([](std::vector<TraceEvent>* t) {
           FindEvent(*t, 2, EventState::kDone)->time_us = 1;
         });
       }});
  catalog.push_back(
      {"write-read-race", "trace-write-race", [] {
         return WithTrace([](std::vector<TraceEvent>* t) {
           // Reader pc3 (slot 0) starts before writer pc2 (slot 1) is done
           // and no other path orders them: concurrent access to var c.
           MoveBefore(t, 3, EventState::kStart, 2, EventState::kDone);
         });
       }});
  catalog.push_back(
      {"write-write-race", "trace-write-race", [] {
         // Malformed double assignment executed concurrently: pc1 and pc2
         // both define var b, overlapping on different slots.
         Artifacts a;
         mal::Program p;
         int va = p.AddVariable(BatLng());
         p.Add("bat", "densebat", {va}, {Argument::Const(Value::Int(16))});
         int vb = p.AddVariable(BatLng());
         p.Add("bat", "mirror", {vb}, {Argument::Var(va)});
         p.Add("bat", "mirror", {vb}, {Argument::Var(va)});
         p.Add("io", "print", {}, {Argument::Var(vb)});
         a.trace = std::vector<TraceEvent>{
             Event(p, 0, 1000, 0, 0, EventState::kStart),
             Event(p, 10, 1010, 0, 0, EventState::kDone, 10),
             Event(p, 20, 1020, 1, 0, EventState::kStart),
             Event(p, 30, 1030, 2, 1, EventState::kStart),
             Event(p, 40, 1040, 1, 0, EventState::kDone, 20),
             Event(p, 50, 1050, 2, 1, EventState::kDone, 20),
             Event(p, 60, 1060, 3, 0, EventState::kStart),
             Event(p, 70, 1070, 3, 0, EventState::kDone, 10),
         };
         a.program = std::move(p);
         return a;
       }});
  catalog.push_back(
      {"span-partial-overlap", "span-interleaving", [] {
         Artifacts a;
         a.program = DiamondPlan();
         std::vector<SpanRecord> spans(2);
         spans[0] = {"bat.mirror", "kernel", 0, 1, 100, 50, 0};
         spans[1] = {"batcalc.add", "kernel", 0, 3, 120, 60, 1};  // straddles
         a.spans = std::move(spans);
         return a;
       }});
  catalog.push_back(
      {"span-cross-tid-retag", "span-interleaving", [] {
         // Two spans that legally overlapped on different tids; the second
         // is mis-tagged onto tid 0, producing a partial overlap there.
         Artifacts a;
         a.program = DiamondPlan();
         std::vector<SpanRecord> spans(3);
         spans[0] = {"bat.densebat", "kernel", 0, 0, 0, 40, 0};
         spans[1] = {"bat.mirror", "kernel", 0, 1, 50, 100, 1};
         spans[2] = {"bat.mirror", "kernel", 0, 2, 120, 100, 2};  // was tid 1
         a.spans = std::move(spans);
         return a;
       }});
  catalog.push_back(
      {"serialized-wide-plan", "schedule-serialization", [] {
         // Width-2 plan, two slots in use, yet never two instructions open
         // at once: the lost-concurrency anomaly.
         Artifacts a;
         a.program = DiamondPlan();
         const mal::Program& p = a.program;
         a.trace = std::vector<TraceEvent>{
             Event(p, 0, 1000, 0, 0, EventState::kStart),
             Event(p, 10, 1010, 0, 0, EventState::kDone, 10),
             Event(p, 20, 1020, 1, 1, EventState::kStart),
             Event(p, 30, 1030, 1, 1, EventState::kDone, 10),
             Event(p, 40, 1040, 2, 0, EventState::kStart),
             Event(p, 50, 1050, 2, 0, EventState::kDone, 10),
             Event(p, 60, 1060, 3, 1, EventState::kStart),
             Event(p, 70, 1070, 3, 1, EventState::kDone, 10),
         };
         return a;
       }});
  return catalog;
}

TEST(HbMutationTest, CatalogCoversAtLeastTwelveCorruptionClasses) {
  EXPECT_GE(MutationCatalog().size(), 12u);
}

TEST(HbMutationTest, EveryCorruptionIsCaughtByItsNamedCheck) {
  for (const HbMutation& m : MutationCatalog()) {
    std::vector<Diagnostic> diags = RunHb(m.build());
    EXPECT_FALSE(diags.empty()) << m.name << ": silent pass";
    EXPECT_TRUE(HasCheck(diags, m.expected_check))
        << m.name << ": expected " << m.expected_check << ", got\n"
        << analysis::FormatDiagnostics(diags);
  }
}

TEST(HbMutationTest, EveryCheckStaysWithinItsCeiling) {
  for (const HbMutation& m : MutationCatalog()) {
    Artifacts a = m.build();
    CheckContext ctx;
    ctx.program = &a.program;
    ctx.registry = engine::ModuleRegistry::Default();
    if (a.trace.has_value()) ctx.trace = &a.trace.value();
    if (a.spans.has_value()) ctx.spans = &a.spans.value();
    tests::ExpectFindingsWithinCeilings(ctx, m.name);
  }
}

TEST(HbMutationTest, CleanParallelBaselineHasZeroFindings) {
  Artifacts a;
  a.program = DiamondPlan();
  a.trace = ParallelDiamondTrace(a.program);
  std::vector<Diagnostic> diags = RunHb(a);
  EXPECT_TRUE(diags.empty()) << analysis::FormatDiagnostics(diags);
}

TEST(HbMutationTest, SerialSingleSlotScheduleIsNotFlagged) {
  // dop=1 execution of a wide plan: serial is expected, not an anomaly.
  Artifacts a;
  a.program = DiamondPlan();
  const mal::Program& p = a.program;
  std::vector<TraceEvent> trace;
  for (int pc = 0; pc < 4; ++pc) {
    trace.push_back(
        Event(p, pc * 20, 1000 + pc * 20, pc, 0, EventState::kStart));
    trace.push_back(Event(p, pc * 20 + 10, 1010 + pc * 20, pc, 0,
                          EventState::kDone, 10));
  }
  a.trace = std::move(trace);
  std::vector<Diagnostic> diags = RunHb(a);
  EXPECT_TRUE(diags.empty()) << analysis::FormatDiagnostics(diags);
}

// ---------------------------------------------------------------------------
// Property test: random DAG plans, shuffled-but-legal schedules are clean
// ---------------------------------------------------------------------------

/// Random SSA DAG: instruction 0 is a source; each later instruction reads
/// 1..3 uniformly chosen earlier results. Dependencies are therefore dense
/// enough that most corruptions have an edge to violate.
mal::Program RandomDagPlan(SplitMix64* rng, int num_instructions) {
  mal::Program p;
  std::vector<int> defined;
  for (int i = 0; i < num_instructions; ++i) {
    int result = p.AddVariable(BatLng());
    if (defined.empty()) {
      p.Add("bat", "densebat", {result}, {Argument::Const(Value::Int(16))});
    } else {
      std::vector<Argument> args;
      int nargs = static_cast<int>(rng->NextRange(1, 3));
      for (int k = 0; k < nargs; ++k) {
        args.push_back(Argument::Var(
            defined[rng->NextBounded(defined.size())]));
      }
      p.Add("bat", "mirror", {result}, args);
    }
    defined.push_back(result);
  }
  return p;
}

/// Emits a random legal schedule: an instruction becomes ready only when
/// every producer is done, each open instruction holds an admission slot
/// (lowest free slot first, like the interpreter), and start/done pairs
/// carry that slot. Every interleaving this produces is one the dataflow
/// scheduler could legally have produced.
std::vector<TraceEvent> LegalSchedule(const mal::Program& p, SplitMix64* rng,
                                      int dop) {
  const mal::Dependencies deps = p.BuildDependencies();
  std::vector<int> indegree(p.size(), 0);
  for (size_t pc = 0; pc < p.size(); ++pc) {
    indegree[pc] =
        static_cast<int>(deps.producers(static_cast<int>(pc)).size());
  }
  std::vector<int> ready;
  for (size_t pc = 0; pc < p.size(); ++pc) {
    if (indegree[pc] == 0) ready.push_back(static_cast<int>(pc));
  }
  std::vector<int> free_slots;
  for (int s = dop - 1; s >= 0; --s) free_slots.push_back(s);  // back = 0
  struct Open {
    int pc;
    int slot;
    int64_t started_us;
  };
  std::vector<Open> open;
  std::vector<TraceEvent> trace;
  int64_t seq = 0;
  while (!ready.empty() || !open.empty()) {
    bool can_start = !ready.empty() && !free_slots.empty();
    if (can_start && (open.empty() || rng->NextBool(0.6))) {
      size_t pick = rng->NextBounded(ready.size());
      int pc = ready[pick];
      ready.erase(ready.begin() + static_cast<ptrdiff_t>(pick));
      int slot = free_slots.back();
      free_slots.pop_back();
      int64_t now = 1000 + seq * 10;
      trace.push_back(Event(p, seq * 10, now, pc, slot, EventState::kStart));
      ++seq;
      open.push_back({pc, slot, now});
    } else {
      size_t pick = rng->NextBounded(open.size());
      Open done = open[pick];
      open.erase(open.begin() + static_cast<ptrdiff_t>(pick));
      int64_t now = 1000 + seq * 10;
      trace.push_back(Event(p, seq * 10, now, done.pc, done.slot,
                            EventState::kDone, now - done.started_us));
      ++seq;
      free_slots.push_back(done.slot);
      std::sort(free_slots.begin(), free_slots.end(),
                std::greater<int>());  // keep lowest slot at the back
      for (int dep : deps.consumers(done.pc)) {
        if (--indegree[static_cast<size_t>(dep)] == 0) ready.push_back(dep);
      }
    }
  }
  return trace;
}

TEST(HbPropertyTest, LegalShuffledSchedulesAreClean) {
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    SplitMix64 rng(seed);
    int size = static_cast<int>(rng.NextRange(4, 24));
    int dop = static_cast<int>(rng.NextRange(1, 4));
    Artifacts a;
    a.program = RandomDagPlan(&rng, size);
    a.trace = LegalSchedule(a.program, &rng, dop);
    std::vector<Diagnostic> diags = RunHb(a);
    EXPECT_TRUE(diags.empty())
        << "seed " << seed << " size " << size << " dop " << dop << "\n"
        << analysis::FormatDiagnostics(diags);
  }
}

TEST(HbPropertyTest, ViolatedEdgeIsAlwaysCaught) {
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    SplitMix64 rng(seed);
    int size = static_cast<int>(rng.NextRange(4, 24));
    int dop = static_cast<int>(rng.NextRange(1, 4));
    Artifacts a;
    a.program = RandomDagPlan(&rng, size);
    std::vector<TraceEvent> trace = LegalSchedule(a.program, &rng, dop);
    // Violate one random dependency edge: renumber the consumer's start to
    // just before the producer's done.
    const mal::Dependencies deps = a.program.BuildDependencies();
    int consumer = -1;
    while (consumer < 0) {
      int pc = static_cast<int>(rng.NextBounded(a.program.size()));
      if (!deps.producers(pc).empty()) consumer = pc;
    }
    int producer = deps.producers(consumer)[0];
    MoveBefore(&trace, consumer, EventState::kStart, producer,
               EventState::kDone);
    a.trace = std::move(trace);
    std::vector<Diagnostic> diags = RunHb(a);
    EXPECT_TRUE(HasCheck(diags, "trace-dependency-violation"))
        << "seed " << seed << ": violated edge pc" << producer << " -> pc"
        << consumer << " passed silently\n"
        << analysis::FormatDiagnostics(diags);
  }
}

TEST(HbPropertyTest, LegalSchedulesRespectHappensBeforeEdges) {
  SplitMix64 rng(7);
  mal::Program p = RandomDagPlan(&rng, 16);
  std::vector<TraceEvent> trace = LegalSchedule(p, &rng, 3);
  ScheduleReport report = Replay(p, trace);
  EXPECT_TRUE(report.violations.empty());
  const mal::Dependencies deps = p.BuildDependencies();
  for (size_t pc = 0; pc < p.size(); ++pc) {
    for (int q : deps.producers(static_cast<int>(pc))) {
      EXPECT_TRUE(analysis::HappensBefore(
          report.executions[static_cast<size_t>(q)], report.executions[pc]))
          << "edge pc" << q << " -> pc" << pc;
    }
  }
}

}  // namespace
}  // namespace stetho
