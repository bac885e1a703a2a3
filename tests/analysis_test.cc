// Golden-diagnostic tests for every analysis check, Runner/format plumbing,
// and the "seed pipeline is clean" property: random valid plans and every
// TPC-H query produce zero diagnostics after each optimizer stage.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/checks.h"
#include "analysis/runner.h"
#include "analysis/signatures.h"
#include "check_ceilings.h"
#include "common/clock.h"
#include "common/rng.h"
#include "dot/parser.h"
#include "dot/writer.h"
#include "engine/interpreter.h"
#include "engine/kernel.h"
#include "mal/parser.h"
#include "mal/program.h"
#include "optimizer/pass.h"
#include "profiler/profiler.h"
#include "profiler/sink.h"
#include "scope/replayer.h"
#include "scope/trace.h"
#include "sql/compiler.h"
#include "check_ceilings.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace stetho {
namespace {

using analysis::CheckContext;
using analysis::Diagnostic;
using analysis::Runner;
using analysis::Severity;
using mal::Argument;
using mal::MalType;
using profiler::EventState;
using profiler::TraceEvent;
using storage::DataType;
using storage::Value;

MalType Lng() { return MalType::Scalar(DataType::kInt64); }
MalType BatLng() { return MalType::Bat(DataType::kInt64); }
MalType BatOid() { return MalType::Bat(DataType::kOid); }

/// Runs exactly one check over the context.
std::vector<Diagnostic> RunOne(std::unique_ptr<analysis::Check> check,
                               const CheckContext& ctx) {
  Runner runner;
  runner.Add(std::move(check));
  return runner.Run(ctx);
}

CheckContext PlanContext(const mal::Program& p) {
  CheckContext ctx;
  ctx.program = &p;
  return ctx;
}

bool HasCheck(const std::vector<Diagnostic>& diags, const std::string& id) {
  for (const Diagnostic& d : diags) {
    if (d.check_id == id) return true;
  }
  return false;
}

/// A well-formed little plan: two sources, an add, a count, and a print
/// consuming everything.
mal::Program CleanPlan() {
  mal::Program p;
  int a = p.AddVariable(BatOid());
  p.Add("bat", "densebat", {a}, {Argument::Const(Value::Int(16))});
  int b = p.AddVariable(BatOid());
  p.Add("bat", "mirror", {b}, {Argument::Var(a)});
  int c = p.AddVariable(BatLng());
  p.Add("batcalc", "add", {c}, {Argument::Var(a), Argument::Var(b)});
  int n = p.AddVariable(Lng());
  p.Add("aggr", "count", {n}, {Argument::Var(c)});
  p.Add("io", "print", {}, {Argument::Var(n)});
  return p;
}

// ---------------------------------------------------------------------------
// ssa-def-before-use
// ---------------------------------------------------------------------------

TEST(DefBeforeUseTest, CleanPlanHasNoFindings) {
  mal::Program p = CleanPlan();
  EXPECT_TRUE(RunOne(analysis::MakeDefBeforeUseCheck(), PlanContext(p)).empty());
}

TEST(DefBeforeUseTest, FlagsUseBeforeDefinition) {
  mal::Program p;
  int a = p.AddVariable(Lng());
  int b = p.AddVariable(Lng());
  p.Add("calc", "add", {b}, {Argument::Var(a), Argument::Const(Value::Int(1))});
  p.Add("sql", "mvc", {a}, {});
  p.Add("io", "print", {}, {Argument::Var(b)});

  auto diags = RunOne(analysis::MakeDefBeforeUseCheck(), PlanContext(p));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].severity, Severity::kError);
  EXPECT_EQ(diags[0].check_id, "ssa-def-before-use");
  EXPECT_EQ(diags[0].pc, 0);
  EXPECT_EQ(diags[0].var, a);
}

TEST(DefBeforeUseTest, FlagsOutOfRangeArgument) {
  mal::Program p;
  int a = p.AddVariable(Lng());
  p.Add("calc", "add", {a},
        {Argument::Var(99), Argument::Const(Value::Int(1))});

  auto diags = RunOne(analysis::MakeDefBeforeUseCheck(), PlanContext(p));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].pc, 0);
  EXPECT_EQ(diags[0].var, 99);
  EXPECT_NE(diags[0].message.find("out-of-range"), std::string::npos);
}

// ---------------------------------------------------------------------------
// ssa-single-assignment
// ---------------------------------------------------------------------------

TEST(SingleAssignmentTest, FlagsSecondAssignment) {
  mal::Program p;
  int a = p.AddVariable(Lng());
  p.Add("sql", "mvc", {a}, {});
  p.Add("sql", "mvc", {a}, {});
  p.Add("io", "print", {}, {Argument::Var(a)});

  auto diags = RunOne(analysis::MakeSingleAssignmentCheck(), PlanContext(p));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].check_id, "ssa-single-assignment");
  EXPECT_EQ(diags[0].pc, 1);
  EXPECT_EQ(diags[0].var, a);
  EXPECT_NE(diags[0].message.find("pc=0"), std::string::npos);
}

TEST(SingleAssignmentTest, FlagsOutOfRangeResult) {
  mal::Program p;
  p.Add("sql", "mvc", {7}, {});
  auto diags = RunOne(analysis::MakeSingleAssignmentCheck(), PlanContext(p));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].severity, Severity::kError);
  EXPECT_EQ(diags[0].var, 7);
}

// ---------------------------------------------------------------------------
// dead-instruction
// ---------------------------------------------------------------------------

TEST(DeadInstructionTest, FlagsUnusedPureResult) {
  mal::Program p = CleanPlan();
  int d = p.AddVariable(BatOid());
  p.Add("bat", "densebat", {d}, {Argument::Const(Value::Int(4))});

  auto diags = RunOne(analysis::MakeDeadInstructionCheck(), PlanContext(p));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].severity, Severity::kWarning);
  EXPECT_EQ(diags[0].check_id, "dead-instruction");
  EXPECT_EQ(diags[0].pc, 5);
}

TEST(DeadInstructionTest, IgnoresEffectfulAndPartiallyUsedOps) {
  mal::Program p;
  // debug.spin is effectful: unused result must NOT be flagged.
  int s = p.AddVariable(Lng());
  p.Add("debug", "spin", {s}, {Argument::Const(Value::Int(1))});
  // algebra.sort's permutation result routinely goes unused: one live
  // result keeps the instruction alive.
  int b = p.AddVariable(BatLng());
  p.Add("bat", "densebat", {b}, {Argument::Const(Value::Int(8))});
  int sorted = p.AddVariable(BatLng());
  int perm = p.AddVariable(BatOid());
  p.Add("algebra", "sort", {sorted, perm},
        {Argument::Var(b), Argument::Const(Value::Bool(false))});
  p.Add("io", "print", {}, {Argument::Var(sorted)});

  EXPECT_TRUE(
      RunOne(analysis::MakeDeadInstructionCheck(), PlanContext(p)).empty());
}

// ---------------------------------------------------------------------------
// kernel-signature
// ---------------------------------------------------------------------------

TEST(KernelSignatureTest, FlagsUnknownKernelAgainstRegistry) {
  mal::Program p;
  int a = p.AddVariable(Lng());
  p.Add("user", "mystery", {a}, {});
  CheckContext ctx = PlanContext(p);
  ctx.registry = engine::ModuleRegistry::Default();

  auto diags = RunOne(analysis::MakeKernelSignatureCheck(), ctx);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].check_id, "kernel-signature");
  EXPECT_NE(diags[0].message.find("unknown kernel user.mystery"),
            std::string::npos);
}

TEST(KernelSignatureTest, FlagsWrongArity) {
  mal::Program p;
  int b = p.AddVariable(BatOid());
  p.Add("bat", "densebat", {b},
        {Argument::Const(Value::Int(4)), Argument::Const(Value::Int(9))});
  auto diags = RunOne(analysis::MakeKernelSignatureCheck(), PlanContext(p));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].pc, 0);
  EXPECT_NE(diags[0].message.find("takes 1 arguments, got 2"),
            std::string::npos);
}

TEST(KernelSignatureTest, FlagsScalarWhereBatExpected) {
  mal::Program p;
  int s = p.AddVariable(Lng());
  p.Add("sql", "mvc", {s}, {});
  int out = p.AddVariable(BatLng());
  p.Add("bat", "mirror", {out}, {Argument::Var(s)});
  auto diags = RunOne(analysis::MakeKernelSignatureCheck(), PlanContext(p));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].pc, 1);
  EXPECT_EQ(diags[0].var, s);
  EXPECT_NE(diags[0].message.find("must be a bat"), std::string::npos);
}

TEST(KernelSignatureTest, FlagsBatcalcWithoutBatArgument) {
  mal::Program p;
  int out = p.AddVariable(BatLng());
  p.Add("batcalc", "add", {out},
        {Argument::Const(Value::Int(1)), Argument::Const(Value::Int(2))});
  auto diags = RunOne(analysis::MakeKernelSignatureCheck(), PlanContext(p));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("at least one BAT argument"),
            std::string::npos);
}

TEST(KernelSignatureTest, FlagsResultDeclaredWithWrongShape) {
  mal::Program p;
  int b = p.AddVariable(BatLng());
  p.Add("bat", "densebat", {b}, {Argument::Const(Value::Int(4))});
  int n = p.AddVariable(BatLng());  // aggr.count yields a scalar
  p.Add("aggr", "count", {n}, {Argument::Var(b)});
  auto diags = RunOne(analysis::MakeKernelSignatureCheck(), PlanContext(p));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].pc, 1);
  EXPECT_EQ(diags[0].var, n);
}

TEST(KernelSignatureTest, FlagsVariadicBelowMinimum) {
  mal::Program p;
  int out = p.AddVariable(BatLng());
  p.Add("mat", "pack", {out}, {});
  auto diags = RunOne(analysis::MakeKernelSignatureCheck(), PlanContext(p));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("at least 1 arguments"), std::string::npos);
}

// ---------------------------------------------------------------------------
// bat-lifetime
// ---------------------------------------------------------------------------

TEST(BatLifetimeTest, FlagsUnconsumedBatFromUnknownProducer) {
  mal::Program p;
  int b = p.AddVariable(BatLng());
  p.Add("user", "loadBat", {b}, {});
  auto diags = RunOne(analysis::MakeBatLifetimeCheck(), PlanContext(p));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].severity, Severity::kWarning);
  EXPECT_EQ(diags[0].check_id, "bat-lifetime");
  EXPECT_EQ(diags[0].var, b);
}

TEST(BatLifetimeTest, PureProducersLeftToDeadInstructionCheck) {
  mal::Program p;
  int b = p.AddVariable(BatLng());
  p.Add("bat", "densebat", {b}, {Argument::Const(Value::Int(4))});
  EXPECT_TRUE(RunOne(analysis::MakeBatLifetimeCheck(), PlanContext(p)).empty());
}

TEST(BatLifetimeTest, FlagsConsumerStartingBeforeProducerDone) {
  mal::Program p = CleanPlan();
  std::vector<TraceEvent> trace;
  auto push = [&trace, &p](int64_t seq, int pc, EventState state) {
    TraceEvent e;
    e.event = seq;
    e.time_us = seq * 10;
    e.pc = pc;
    e.state = state;
    e.stmt = p.InstructionToString(p.instruction(pc));
    trace.push_back(e);
  };
  // pc=1 (bat.mirror of X_0) starts BEFORE pc=0 (densebat) is done.
  push(0, 0, EventState::kStart);
  push(1, 1, EventState::kStart);
  push(2, 0, EventState::kDone);
  push(3, 1, EventState::kDone);
  for (int pc = 2; pc < 5; ++pc) {
    push(2 * pc, pc, EventState::kStart);
    push(2 * pc + 1, pc, EventState::kDone);
  }
  CheckContext ctx = PlanContext(p);
  ctx.trace = &trace;

  // bat-lifetime is plan-only: the trace-side producer/consumer ordering
  // moved to trace-dependency-violation (hb.h), which still catches it.
  auto diags = RunOne(analysis::MakeBatLifetimeCheck(), ctx);
  EXPECT_TRUE(diags.empty());
  auto hb = RunOne(analysis::MakeTraceDependencyViolationCheck(), ctx);
  ASSERT_FALSE(hb.empty());
  EXPECT_EQ(hb[0].severity, Severity::kError);
  EXPECT_EQ(hb[0].pc, 1);
}

// ---------------------------------------------------------------------------
// sink-order-key
// ---------------------------------------------------------------------------

TEST(SinkOrderKeyTest, NotesPlanWithoutAnySink) {
  mal::Program p;
  int a = p.AddVariable(Lng());
  p.Add("sql", "mvc", {a}, {});
  auto diags = RunOne(analysis::MakeSinkOrderKeyCheck(), PlanContext(p));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].severity, Severity::kNote);
  EXPECT_EQ(diags[0].pc, -1);
}

TEST(SinkOrderKeyTest, FlagsUnknownSinkWithoutOrderKey) {
  mal::Program p;
  int a = p.AddVariable(Lng());
  p.Add("sql", "mvc", {a}, {});
  p.Add("user", "printResult", {}, {Argument::Var(a)});
  auto diags = RunOne(analysis::MakeSinkOrderKeyCheck(), PlanContext(p));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].severity, Severity::kError);
  EXPECT_EQ(diags[0].check_id, "sink-order-key");
  EXPECT_EQ(diags[0].pc, 1);
}

TEST(SinkOrderKeyTest, FlagsOrderKeyCollision) {
  mal::Program p;
  int a = p.AddVariable(Lng());
  p.Add("sql", "mvc", {a}, {});
  std::vector<Argument> args(257, Argument::Var(a));
  p.Add("io", "print", {}, std::move(args));
  auto diags = RunOne(analysis::MakeSinkOrderKeyCheck(), PlanContext(p));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("order key"), std::string::npos);
}

// ---------------------------------------------------------------------------
// dot-contract
// ---------------------------------------------------------------------------

TEST(DotContractTest, GeneratedGraphConforms) {
  mal::Program p = CleanPlan();
  dot::Graph g = dot::ProgramToGraph(p);
  CheckContext ctx = PlanContext(p);
  ctx.graph = &g;
  EXPECT_TRUE(RunOne(analysis::MakeDotContractCheck(), ctx).empty());
}

TEST(DotContractTest, FlagsTamperedLabel) {
  mal::Program p = CleanPlan();
  dot::Graph g = dot::ProgramToGraph(p);
  g.node(2).given_label = "tampered";
  CheckContext ctx = PlanContext(p);
  ctx.graph = &g;
  auto diags = RunOne(analysis::MakeDotContractCheck(), ctx);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].check_id, "dot-contract");
  EXPECT_EQ(diags[0].pc, 2);
  EXPECT_NE(diags[0].message.find("label mismatch"), std::string::npos);
}

TEST(DotContractTest, WarnsOnLabelLessNode) {
  mal::Program p = CleanPlan();
  // The plan's dot with node n1's attribute list cut away.
  std::string text = dot::ProgramToDot(p);
  const size_t start = text.find("  n1 [");
  ASSERT_NE(start, std::string::npos);
  const size_t end = text.find('\n', start);
  text.replace(start, end - start, "  n1;");
  auto g = dot::ParseDot(text);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  CheckContext ctx = PlanContext(p);
  ctx.graph = &g.value();
  auto diags = RunOne(analysis::MakeDotContractCheck(), ctx);
  ASSERT_EQ(diags.size(), 2u);
  bool warned = false, mismatched = false;
  for (const Diagnostic& d : diags) {
    EXPECT_EQ(d.pc, 1);
    if (d.severity == Severity::kWarning &&
        d.message.find("has no label attribute") != std::string::npos) {
      warned = true;
    }
    // Without a label the node reads as its id, which is not the statement.
    if (d.severity == Severity::kError &&
        d.message.find("label mismatch: dot says \"n1\"") !=
            std::string::npos) {
      mismatched = true;
    }
  }
  EXPECT_TRUE(warned);
  EXPECT_TRUE(mismatched);
}

TEST(DotContractTest, FlagsMissingNodeAndBadId) {
  mal::Program p = CleanPlan();
  dot::Graph g;  // empty graph: every pc is missing
  g.AddNode("opaque_name");
  CheckContext ctx = PlanContext(p);
  ctx.graph = &g;
  auto diags = RunOne(analysis::MakeDotContractCheck(), ctx);
  EXPECT_TRUE(HasCheck(diags, "dot-contract"));
  bool missing = false, bad_id = false;
  for (const Diagnostic& d : diags) {
    if (d.message.find("has no dot node") != std::string::npos) missing = true;
    if (d.message.find("naming convention") != std::string::npos) bad_id = true;
  }
  EXPECT_TRUE(missing);
  EXPECT_TRUE(bad_id);
}

TEST(DotContractTest, FlagsExtraAndMissingEdges) {
  mal::Program p = CleanPlan();
  dot::Graph g = dot::ProgramToGraph(p);
  g.AddEdge("n0", "n4");  // not a dataflow dependency
  CheckContext ctx = PlanContext(p);
  ctx.graph = &g;
  auto diags = RunOne(analysis::MakeDotContractCheck(), ctx);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].severity, Severity::kWarning);
  EXPECT_NE(diags[0].message.find("no matching dataflow dependency"),
            std::string::npos);
}

// One pc, one node name. Beside n1, this dot holds three ids that a
// lenient number parse reads as pc 1 (a leading zero, a sign, a value that
// wraps past int); its trace ran pc 1 for 42 us. Only n1 joins that
// execution: the replay paints and counts it alone, and dot-contract
// rejects the other three.
TEST(DotContractTest, NonCanonicalIdsJoinNoExecution) {
  auto g = dot::ParseDot(
      "digraph odd {\n"
      "  n1 [label=\"X_1:lng := sql.mvc();\"];\n"
      "  n01 [label=\"X_1:lng := sql.mvc();\"];\n"
      "  \"n+1\" [label=\"X_1:lng := sql.mvc();\"];\n"
      "  n4294967297 [label=\"X_1:lng := sql.mvc();\"];\n"
      "}\n");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  const std::vector<std::string> odd = {"n01", "n+1", "n4294967297"};

  CheckContext ctx;
  ctx.graph = &g.value();
  auto diags = RunOne(analysis::MakeDotContractCheck(), ctx);
  ASSERT_EQ(diags.size(), odd.size()) << analysis::FormatDiagnostics(diags);
  for (const std::string& id : odd) {
    const std::string message = "node \"" + id + "\" does not follow";
    EXPECT_TRUE(std::any_of(diags.begin(), diags.end(),
                            [&message](const Diagnostic& d) {
                              return d.severity == Severity::kError &&
                                     d.message.find(message) !=
                                         std::string::npos;
                            }))
        << id;
  }

  std::vector<TraceEvent> trace(2);
  trace[0].event = 0;
  trace[0].time_us = 100;
  trace[0].pc = 1;
  trace[0].state = EventState::kStart;
  trace[1] = trace[0];
  trace[1].event = 1;
  trace[1].time_us = 142;
  trace[1].state = EventState::kDone;
  trace[1].usec = 42;
  VirtualClock clock;
  scope::ReplayOptions options;
  options.clock = &clock;
  auto replayer = scope::OfflineReplayer::Create(g.value(), trace, options);
  ASSERT_TRUE(replayer.ok()) << replayer.status().ToString();
  scope::OfflineReplayer& r = *replayer.value();
  const viz::Color unpainted = r.NodeColor("n1").value();
  ASSERT_TRUE(r.SeekTo(trace.size()).ok());
  EXPECT_NE(r.TooltipFor("n1").find("executions=1 total=42us"),
            std::string::npos)
      << r.TooltipFor("n1");
  EXPECT_EQ(r.NodeColor("n1").value(), viz::Color::Green());
  for (const std::string& id : odd) {
    EXPECT_EQ(r.TooltipFor(id).find("executions"), std::string::npos)
        << r.TooltipFor(id);
    EXPECT_EQ(r.NodeColor(id).value(), unpainted) << id;
  }
}

// ---------------------------------------------------------------------------
// trace-conformance
// ---------------------------------------------------------------------------

std::vector<TraceEvent> WellFormedTrace(const mal::Program& p) {
  std::vector<TraceEvent> trace;
  int64_t seq = 0;
  for (const mal::Instruction& ins : p.instructions()) {
    for (EventState state : {EventState::kStart, EventState::kDone}) {
      TraceEvent e;
      e.event = seq;
      e.time_us = 100 + seq * 5;
      e.pc = ins.pc;
      e.state = state;
      e.usec = state == EventState::kDone ? 5 : 0;
      e.stmt = p.InstructionToString(ins);
      trace.push_back(e);
      ++seq;
    }
  }
  return trace;
}

TEST(TraceConformanceTest, WellFormedTraceIsClean) {
  mal::Program p = CleanPlan();
  std::vector<TraceEvent> trace = WellFormedTrace(p);
  CheckContext ctx = PlanContext(p);
  ctx.trace = &trace;
  EXPECT_TRUE(RunOne(analysis::MakeTraceConformanceCheck(), ctx).empty());
}

TEST(TraceConformanceTest, FlagsUnpairedStart) {
  mal::Program p = CleanPlan();
  std::vector<TraceEvent> trace = WellFormedTrace(p);
  trace.erase(trace.begin() + 5);  // drop pc=2's done event
  CheckContext ctx = PlanContext(p);
  ctx.trace = &trace;
  auto diags = RunOne(analysis::MakeTraceConformanceCheck(), ctx);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].check_id, "trace-conformance");
  EXPECT_EQ(diags[0].pc, 2);
  EXPECT_NE(diags[0].message.find("1 start vs 0 done"), std::string::npos);
}

TEST(TraceConformanceTest, FlagsDoubleExecution) {
  mal::Program p = CleanPlan();
  std::vector<TraceEvent> trace = WellFormedTrace(p);
  std::vector<TraceEvent> doubled = trace;
  for (TraceEvent e : {trace[0], trace[1]}) {
    e.event += 100;
    e.time_us += 1000;
    doubled.push_back(e);
  }
  CheckContext ctx = PlanContext(p);
  ctx.trace = &doubled;
  auto diags = RunOne(analysis::MakeTraceConformanceCheck(), ctx);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].pc, 0);
  EXPECT_NE(diags[0].message.find("executed 2 times"), std::string::npos);
}

TEST(TraceConformanceTest, FlagsNonMonotonicClock) {
  mal::Program p = CleanPlan();
  std::vector<TraceEvent> trace = WellFormedTrace(p);
  trace[3].time_us = 1;  // runs backwards
  CheckContext ctx = PlanContext(p);
  ctx.trace = &trace;
  auto diags = RunOne(analysis::MakeTraceConformanceCheck(), ctx);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("runs backwards"), std::string::npos);
}

TEST(TraceConformanceTest, FlagsPcOutOfRangeAndStmtMismatch) {
  mal::Program p = CleanPlan();
  std::vector<TraceEvent> trace = WellFormedTrace(p);
  trace[0].stmt = "something else entirely";
  TraceEvent rogue = trace.back();
  rogue.event = 99;
  rogue.pc = 42;
  trace.push_back(rogue);
  CheckContext ctx = PlanContext(p);
  ctx.trace = &trace;
  auto diags = RunOne(analysis::MakeTraceConformanceCheck(), ctx);
  bool mismatch = false, out_of_range = false;
  for (const Diagnostic& d : diags) {
    if (d.message.find("diverges from the plan") != std::string::npos) {
      mismatch = true;
      EXPECT_EQ(d.pc, 0);
    }
    if (d.message.find("outside the plan") != std::string::npos) {
      out_of_range = true;
      EXPECT_EQ(d.pc, 42);
    }
  }
  EXPECT_TRUE(mismatch);
  EXPECT_TRUE(out_of_range);
}

// ---------------------------------------------------------------------------
// Runner + formatting
// ---------------------------------------------------------------------------

TEST(RunnerTest, SkipsChecksWithMissingInputs) {
  CheckContext empty;
  EXPECT_TRUE(Runner::Default().Run(empty).empty());
}

TEST(RunnerTest, DefaultSuiteHasAllChecks) {
  EXPECT_EQ(Runner::Default().size(), 24u);
}

TEST(RunnerTest, SortsErrorsFirstThenByPc) {
  mal::Program p;
  int a = p.AddVariable(Lng());
  // pc=0: dead instruction (warning) — result never used.
  p.Add("sql", "mvc", {a}, {});
  // pc=1: def-before-use (error).
  int b = p.AddVariable(Lng());
  p.Add("calc", "not", {b}, {Argument::Var(5)});
  auto diags = Runner::Default().Run(PlanContext(p));
  ASSERT_GE(diags.size(), 2u);
  EXPECT_EQ(diags[0].severity, Severity::kError);
  for (size_t i = 1; i < diags.size(); ++i) {
    EXPECT_LE(static_cast<int>(diags[i].severity),
              static_cast<int>(diags[i - 1].severity));
  }
}

TEST(RunnerTest, DiagnosticsToStatusNamesContextAndCheck) {
  mal::Program p;
  int b = p.AddVariable(Lng());
  p.Add("calc", "not", {b}, {Argument::Var(9)});
  auto diags = Runner::Default().Run(PlanContext(p));
  Status st = analysis::DiagnosticsToStatus(diags, "pass 'broken'");
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("pass 'broken'"), std::string::npos);
  EXPECT_NE(st.message().find("ssa-def-before-use"), std::string::npos);
  EXPECT_NE(st.message().find("pc=0"), std::string::npos);
}

TEST(RunnerTest, WarningsDoNotFailStatus) {
  mal::Program p;
  int a = p.AddVariable(Lng());
  p.Add("sql", "mvc", {a}, {});  // dead instruction + no-sink note
  auto diags = Runner::Default().Run(PlanContext(p));
  EXPECT_FALSE(diags.empty());
  EXPECT_TRUE(analysis::DiagnosticsToStatus(diags, "ctx").ok());
}

TEST(RunnerTest, JsonOutputIsStructuredAndEscaped) {
  std::vector<Diagnostic> diags(1);
  diags[0].severity = Severity::kError;
  diags[0].check_id = "dot-contract";
  diags[0].pc = 3;
  diags[0].message = "label \"weird\\path\" mismatch";
  std::string json = analysis::DiagnosticsToJson(diags);
  EXPECT_NE(json.find("\"check\": \"dot-contract\""), std::string::npos);
  EXPECT_NE(json.find("\"pc\": 3"), std::string::npos);
  EXPECT_NE(json.find("\\\"weird\\\\path\\\""), std::string::npos);
  EXPECT_TRUE(analysis::DiagnosticsToJson({}).find("[]") == 0);
}

TEST(RunnerTest, DiagnosticToStringIncludesEveryField) {
  Diagnostic d;
  d.severity = Severity::kWarning;
  d.check_id = "dead-instruction";
  d.pc = 12;
  d.var = 4;
  d.message = "unused";
  d.fix_hint = "remove it";
  std::string s = d.ToString();
  EXPECT_NE(s.find("warning[dead-instruction]"), std::string::npos);
  EXPECT_NE(s.find("pc=12"), std::string::npos);
  EXPECT_NE(s.find("var=4"), std::string::npos);
  EXPECT_NE(s.find("hint: remove it"), std::string::npos);
}

TEST(RunnerTest, LenientParserFeedsLinter) {
  auto p = mal::ParseProgram(
      "function user.main():void;\n"
      "    X_1:lng := calc.not(X_0);\n"
      "    X_0:lng := sql.mvc();\n"
      "end user.main;\n");
  EXPECT_FALSE(p.ok());  // strict parse rejects def-before-use

  auto lenient = mal::ParseProgramLenient(
      "function user.main():void;\n"
      "    X_1:lng := calc.not(X_0);\n"
      "    X_0:lng := sql.mvc();\n"
      "end user.main;\n");
  ASSERT_TRUE(lenient.ok());
  auto diags = Runner::Default().Run(PlanContext(lenient.value()));
  EXPECT_TRUE(HasCheck(diags, "ssa-def-before-use"));
}

// ---------------------------------------------------------------------------
// Property: random valid plans stay clean through every optimizer stage.
// ---------------------------------------------------------------------------

mal::Program GenerateRandomPlan(uint64_t seed) {
  SplitMix64 rng(seed);
  mal::Program p;
  std::vector<int> bats;
  std::vector<int> scalars;

  int sources = 1 + static_cast<int>(rng.NextBounded(3));
  for (int i = 0; i < sources; ++i) {
    int v = p.AddVariable(BatOid());
    p.Add("bat", "densebat",
          {v}, {Argument::Const(Value::Int(rng.NextRange(1, 64)))});
    bats.push_back(v);
  }

  int ops = 3 + static_cast<int>(rng.NextBounded(10));
  for (int i = 0; i < ops; ++i) {
    switch (rng.NextBounded(6)) {
      case 0: {  // bat.mirror (always produces bat[:oid])
        int in = bats[rng.NextBounded(bats.size())];
        int out = p.AddVariable(BatOid());
        p.Add("bat", "mirror", {out}, {Argument::Var(in)});
        bats.push_back(out);
        break;
      }
      case 1: {  // batcalc over a bat and a constant (or the bat itself;
                 // two independent sources would zip different row counts)
        int in = bats[rng.NextBounded(bats.size())];
        Argument rhs = rng.NextBool(0.5)
                           ? Argument::Const(Value::Int(rng.NextRange(1, 9)))
                           : Argument::Var(in);
        int out = p.AddVariable(BatLng());
        p.Add("batcalc", "add", {out}, {Argument::Var(in), rhs});
        bats.push_back(out);
        break;
      }
      case 2: {  // aggr.count: bat -> scalar
        int in = bats[rng.NextBounded(bats.size())];
        int out = p.AddVariable(Lng());
        p.Add("aggr", "count", {out}, {Argument::Var(in)});
        scalars.push_back(out);
        break;
      }
      case 3: {  // scalar arithmetic, sometimes constant-foldable
        Argument lhs = scalars.empty() || rng.NextBool(0.3)
                           ? Argument::Const(Value::Int(rng.NextRange(1, 9)))
                           : Argument::Var(scalars[rng.NextBounded(
                                 scalars.size())]);
        int out = p.AddVariable(Lng());
        p.Add("calc", "add", {out},
              {lhs, Argument::Const(Value::Int(rng.NextRange(1, 9)))});
        scalars.push_back(out);
        break;
      }
      case 4: {  // bat.append (operands must share an element type)
        int a = bats[rng.NextBounded(bats.size())];
        int b = bats[rng.NextBounded(bats.size())];
        if (p.variable(b).type != p.variable(a).type) b = a;
        int out = p.AddVariable(p.variable(a).type);
        p.Add("bat", "append", {out}, {Argument::Var(a), Argument::Var(b)});
        bats.push_back(out);
        break;
      }
      case 5: {  // duplicate of an earlier op, CSE fodder
        int in = bats[rng.NextBounded(bats.size())];
        int out = p.AddVariable(BatOid());
        p.Add("bat", "mirror", {out}, {Argument::Var(in)});
        bats.push_back(out);
        break;
      }
    }
  }

  // Print every variable so nothing is dead and the plan has a sink.
  std::vector<Argument> args;
  for (int v : bats) args.push_back(Argument::Var(v));
  for (int v : scalars) args.push_back(Argument::Var(v));
  p.Add("io", "print", {}, std::move(args));
  return p;
}

class RandomPlanTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomPlanTest, OptimizerStagesStayLintClean) {
  mal::Program p = GenerateRandomPlan(GetParam());
  ASSERT_TRUE(p.Validate().ok());

  CheckContext ctx;
  ctx.registry = engine::ModuleRegistry::Default();

  // Lint the raw plan, then after each individual optimizer stage. The raw
  // plan deliberately contains foldable calc.* chains, so allow the
  // missed-constant-fold notes but nothing of consequence.
  ctx.program = &p;
  auto diags = Runner::Default().Run(ctx);
  EXPECT_EQ(analysis::CountSeverity(diags, Severity::kError), 0u)
      << analysis::FormatDiagnostics(diags);
  EXPECT_EQ(analysis::CountSeverity(diags, Severity::kWarning), 0u)
      << analysis::FormatDiagnostics(diags);

  for (int pieces : {0, 4}) {
    mal::Program optimized = GenerateRandomPlan(GetParam());
    optimizer::Pipeline pipeline = optimizer::Pipeline::Default(pieces);
    auto fired = pipeline.Run(&optimized);  // lints after every pass itself
    ASSERT_TRUE(fired.ok()) << fired.status().ToString();
    ctx.program = &optimized;
    diags = Runner::Default().Run(ctx);
    EXPECT_TRUE(diags.empty())
        << "pieces=" << pieces << "\n"
        << analysis::FormatDiagnostics(diags) << optimized.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPlanTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u,
                                           55u, 89u, 144u, 233u));

// ---------------------------------------------------------------------------
// Integration: the whole seed SQL -> MAL -> optimizer -> execution pipeline
// produces plans, graphs, and traces with zero diagnostics.
// ---------------------------------------------------------------------------

class SeedPipelineTest : public ::testing::Test {
 protected:
  static storage::Catalog MakeCatalog() {
    tpch::TpchConfig config;
    config.scale_factor = 0.002;
    auto cat = tpch::GenerateTpch(config);
    EXPECT_TRUE(cat.ok());
    return std::move(cat.value());
  }
};

TEST_F(SeedPipelineTest, AllQueriesLintCleanAfterOptimization) {
  storage::Catalog catalog = MakeCatalog();
  CheckContext ctx;
  ctx.registry = engine::ModuleRegistry::Default();
  for (const char* query :
       {"paper", "q1", "q3", "q5", "q6", "q12", "q14", "big_group",
        "scan_heavy", "q18", "q11", "q16", "distinct_flags"}) {
    const std::string sql = tpch::GetQuery(query).value().sql;
    for (int pieces : {0, 8}) {
      auto plan = sql::Compiler::CompileSql(&catalog, sql);
      ASSERT_TRUE(plan.ok()) << query;
      optimizer::Pipeline pipeline = optimizer::Pipeline::Default(pieces);
      auto fired = pipeline.Run(&plan.value());
      ASSERT_TRUE(fired.ok()) << query << ": " << fired.status().ToString();

      ctx.program = &plan.value();
      dot::Graph graph = dot::ProgramToGraph(plan.value());
      ctx.graph = &graph;
      auto diags = Runner::Default().Run(ctx);
      EXPECT_TRUE(diags.empty())
          << query << " pieces=" << pieces << "\n"
          << analysis::FormatDiagnostics(diags);
      ctx.graph = nullptr;
    }
  }
}

TEST_F(SeedPipelineTest, ExecutedQueryTraceLintsClean) {
  // The dataflow leg runs at an explicit dop 4 with every instruction
  // padded by a 200 us sleep on the steady clock: while one slot sleeps
  // another starts, on any number of CPUs, so the trace shows the overlap
  // a dop-4 schedule must have and schedule-serialization stays quiet.
  storage::Catalog catalog = MakeCatalog();
  profiler::Profiler profiler(SteadyClock::Default());
  auto ring = std::make_shared<profiler::RingBufferSink>(1 << 16);
  profiler.AddSink(ring);
  engine::ExecOptions exec;
  exec.num_threads = 4;
  exec.use_dataflow = true;
  exec.clock = SteadyClock::Default();
  exec.profiler = &profiler;
  exec.pad_instruction_usec = 200;

  for (const char* query : {"q1", "q6", "q14"}) {
    ring->Clear();
    auto plan = sql::Compiler::CompileSql(&catalog,
                                          tpch::GetQuery(query).value().sql);
    ASSERT_TRUE(plan.ok()) << query;
    auto fired = optimizer::Pipeline::Default(4).Run(&plan.value());
    ASSERT_TRUE(fired.ok()) << query << ": " << fired.status().ToString();
    engine::Interpreter interpreter(&catalog);
    auto executed = interpreter.Execute(plan.value(), exec);
    ASSERT_TRUE(executed.ok()) << query << ": " << executed.status().ToString();
    auto graph = dot::ParseDot(dot::ProgramToDot(plan.value()));
    ASSERT_TRUE(graph.ok()) << query;
    auto events = ring->Snapshot();
    ASSERT_FALSE(events.empty()) << query;

    CheckContext ctx;
    ctx.program = &plan.value();
    ctx.graph = &graph.value();
    ctx.trace = &events;
    ctx.registry = engine::ModuleRegistry::Default();
    auto diags = Runner::Default().Run(ctx);
    // Selective plans may earn the informational "bound is >2x the
    // recorded peak" conformance note; anything at warning or above (or
    // any other note) is a real regression.
    for (const Diagnostic& d : diags) {
      EXPECT_TRUE(d.severity == Severity::kNote &&
                  d.check_id == "footprint-conformance")
          << query << "\n" << analysis::FormatDiagnostics(diags);
    }
  }
}

// Every built-in kernel registers a signature, so the lint can type-check
// any plan the compiler emits.
TEST(SignatureTableTest, CoversEveryRegisteredKernel) {
  const engine::ModuleRegistry* registry = engine::ModuleRegistry::Default();
  for (const std::string& name : registry->ListKernels()) {
    size_t dotpos = name.find('.');
    ASSERT_NE(dotpos, std::string::npos) << name;
    const engine::Kernel* kernel =
        registry->Resolve(name.substr(0, dotpos), name.substr(dotpos + 1));
    ASSERT_NE(kernel, nullptr) << name;
    EXPECT_EQ(kernel->name, name);
    EXPECT_TRUE(kernel->signature.has_value())
        << "built-in kernel " << name << " registered without a signature";
  }
}

// Passes and checks recognise an operation by its signature's role, so
// each role must name exactly the kernels it stands for, and no other
// kernel may carry one.
TEST(KernelRoleTest, EachRoleNamesExactlyItsKernels) {
  using analysis::KernelRole;
  const std::map<KernelRole, std::set<std::string>> expected = {
      {KernelRole::kTableScan, {"sql.tid"}},
      {KernelRole::kColumnBind, {"sql.bind"}},
      {KernelRole::kCandidateSelect,
       {"algebra.likeselect", "algebra.select", "algebra.thetaselect"}},
      {KernelRole::kProjection, {"algebra.projection"}},
      {KernelRole::kConcatenation, {"bat.append", "mat.pack"}},
      {KernelRole::kAdmin, {"language.dataflow", "language.pass"}},
      {KernelRole::kScalarFold,
       {"calc.add", "calc.and", "calc.dbl", "calc.div", "calc.eq", "calc.ge",
        "calc.gt", "calc.le", "calc.lng", "calc.lt", "calc.mul", "calc.ne",
        "calc.not", "calc.or", "calc.str", "calc.sub"}},
  };
  const engine::ModuleRegistry* registry = engine::ModuleRegistry::Default();
  std::map<KernelRole, std::set<std::string>> actual;
  for (const std::string& name : registry->ListKernels()) {
    const size_t dotpos = name.find('.');
    const engine::Kernel* kernel =
        registry->Resolve(name.substr(0, dotpos), name.substr(dotpos + 1));
    ASSERT_NE(kernel, nullptr) << name;
    ASSERT_TRUE(kernel->signature.has_value()) << name;
    const KernelRole role = kernel->signature->role;
    if (role != KernelRole::kNone) actual[role].insert(name);
  }
  EXPECT_EQ(actual, expected);

  // The slot layout the candidate roles share with mitosis and
  // cardinality-contradiction.
  const analysis::CandidateColumnSlots select =
      analysis::CandidateColumnSlotsOf(KernelRole::kCandidateSelect);
  EXPECT_EQ(select.candidates, 1);
  EXPECT_EQ(select.column, 0);
  const analysis::CandidateColumnSlots projection =
      analysis::CandidateColumnSlotsOf(KernelRole::kProjection);
  EXPECT_EQ(projection.candidates, 0);
  EXPECT_EQ(projection.column, 1);
  EXPECT_FALSE(
      analysis::CandidateColumnSlotsOf(KernelRole::kTableScan).valid());
}

// ---------------------------------------------------------------------------
// SARIF schema shape, fingerprints, and baselines
// ---------------------------------------------------------------------------

// Minimal structural audit against SARIF 2.1.0: regions are 1-based with an
// explicit startColumn, every result's ruleIndex points at the entry in the
// rules array whose id matches its ruleId, and rules appear in
// first-appearance order. (Full-output fidelity is the golden-file test in
// absint_test.cc.)
TEST(SarifSchemaShapeTest, RuleIndexAndRegionsAreConsistent) {
  std::vector<Diagnostic> diags(3);
  diags[0].severity = Severity::kError;
  diags[0].check_id = "trace-dependency-violation";
  diags[0].pc = 0;
  diags[0].message = "first";
  diags[1].severity = Severity::kWarning;
  diags[1].check_id = "type-flow";
  diags[1].pc = 4;
  diags[1].message = "second";
  diags[2].severity = Severity::kNote;
  diags[2].check_id = "trace-dependency-violation";
  diags[2].pc = 9;
  diags[2].message = "third";
  std::string sarif = analysis::DiagnosticsToSarif(diags, "p.mal");

  // Rules: first-appearance order, each id exactly once.
  size_t rule0 = sarif.find("{\"id\": \"trace-dependency-violation\"");
  size_t rule1 = sarif.find("{\"id\": \"type-flow\"");
  ASSERT_NE(rule0, std::string::npos);
  ASSERT_NE(rule1, std::string::npos);
  EXPECT_LT(rule0, rule1);
  EXPECT_EQ(sarif.find("{\"id\": \"trace-dependency-violation\"", rule0 + 1),
            std::string::npos);

  // Results reference the matching rule index.
  EXPECT_NE(sarif.find("\"ruleId\": \"trace-dependency-violation\", "
                       "\"ruleIndex\": 0"),
            std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"type-flow\", \"ruleIndex\": 1"),
            std::string::npos);

  // Regions are 1-based: pc 0 is line 1 column 1; pc 9 is line 10.
  EXPECT_NE(sarif.find("\"region\": {\"startLine\": 1, \"startColumn\": 1}"),
            std::string::npos);
  EXPECT_NE(sarif.find("\"region\": {\"startLine\": 10, \"startColumn\": 1}"),
            std::string::npos);
  EXPECT_EQ(sarif.find("\"startLine\": 0"), std::string::npos);
  EXPECT_EQ(sarif.find("\"startColumn\": 0"), std::string::npos);
}

TEST(FingerprintTest, NormalizesDigitsButKeepsIdentity) {
  Diagnostic d;
  d.check_id = "trace-dependency-violation";
  d.pc = 3;
  d.message = "started before producer pc=2 finished";
  std::string fp = analysis::DiagnosticFingerprint(d);
  EXPECT_EQ(fp,
            "trace-dependency-violation:3:started before producer pc=# "
            "finished");

  // Drifting counts inside the message do not change the fingerprint...
  Diagnostic drifted = d;
  drifted.message = "started before producer pc=7 finished";
  EXPECT_EQ(analysis::DiagnosticFingerprint(drifted), fp);
  // ...but a different pc or check does.
  Diagnostic moved = d;
  moved.pc = 4;
  EXPECT_NE(analysis::DiagnosticFingerprint(moved), fp);
}

TEST(BaselineTest, RoundTripSuppressesOnlyListedFindings) {
  std::vector<Diagnostic> diags(2);
  diags[0].severity = Severity::kError;
  diags[0].check_id = "trace-write-race";
  diags[0].pc = 5;
  diags[0].message = "write-write race on X_9";
  diags[1].severity = Severity::kNote;
  diags[1].check_id = "schedule-serialization";
  diags[1].pc = -1;
  diags[1].message = "plan admits 4-wide parallelism";

  // Baseline only the first finding; parse tolerates comments and blanks.
  std::string file = "# comment\n\n" +
                     analysis::DiagnosticFingerprint(diags[0]) + "\n";
  std::vector<std::string> baseline = analysis::ParseBaseline(file);
  ASSERT_EQ(baseline.size(), 1u);
  std::vector<Diagnostic> left = analysis::ApplyBaseline(diags, baseline);
  ASSERT_EQ(left.size(), 1u);
  EXPECT_EQ(left[0].check_id, "schedule-serialization");

  // FormatBaseline over the findings suppresses everything on re-apply.
  std::vector<std::string> full =
      analysis::ParseBaseline(analysis::FormatBaseline(diags));
  EXPECT_TRUE(analysis::ApplyBaseline(diags, full).empty());
}

TEST(FailOnTest, ThresholdMatchesSeverityOrdering) {
  std::vector<Diagnostic> diags(1);
  diags[0].severity = Severity::kWarning;
  diags[0].check_id = "dead-instruction";
  diags[0].message = "m";
  EXPECT_TRUE(analysis::AnyAtOrAbove(diags, Severity::kNote));
  EXPECT_TRUE(analysis::AnyAtOrAbove(diags, Severity::kWarning));
  EXPECT_FALSE(analysis::AnyAtOrAbove(diags, Severity::kError));
  EXPECT_FALSE(analysis::AnyAtOrAbove({}, Severity::kNote));
}


// ---------------------------------------------------------------------------
// trace-sequence-gap
// ---------------------------------------------------------------------------

std::vector<TraceEvent> SeqTrace(const std::vector<int64_t>& seqs) {
  std::vector<TraceEvent> trace;
  for (int64_t seq : seqs) {
    TraceEvent e;
    e.event = seq;
    e.time_us = 100 + seq;
    e.pc = 0;
    e.state = EventState::kDone;
    trace.push_back(e);
  }
  return trace;
}

TEST(TraceSequenceGapTest, CleanContiguousTraceHasNoFindings) {
  mal::Program p = CleanPlan();
  auto trace = SeqTrace({0, 1, 2, 3, 4, 5});
  CheckContext ctx = PlanContext(p);
  ctx.trace = &trace;
  EXPECT_TRUE(
      RunOne(analysis::MakeTraceSequenceGapCheck(), ctx).empty());
}

TEST(TraceSequenceGapTest, MissingSequenceNumbersWarn) {
  mal::Program p = CleanPlan();
  auto trace = SeqTrace({0, 1, 4, 5});  // 2 and 3 lost in transit
  CheckContext ctx = PlanContext(p);
  ctx.trace = &trace;
  auto diags = RunOne(analysis::MakeTraceSequenceGapCheck(), ctx);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].severity, Severity::kWarning);
  EXPECT_EQ(diags[0].check_id, "trace-sequence-gap");
  EXPECT_NE(diags[0].message.find("2 of 6"), std::string::npos)
      << diags[0].message;
}

TEST(TraceSequenceGapTest, DuplicatedSequenceNumbersError) {
  mal::Program p = CleanPlan();
  auto trace = SeqTrace({0, 1, 1, 2});
  CheckContext ctx = PlanContext(p);
  ctx.trace = &trace;
  auto diags = RunOne(analysis::MakeTraceSequenceGapCheck(), ctx);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].severity, Severity::kError);
  EXPECT_NE(diags[0].message.find("appears 2 times"), std::string::npos);
}

TEST(TraceSequenceGapTest, FileOrderRegressionIsANote) {
  mal::Program p = CleanPlan();
  auto trace = SeqTrace({0, 2, 1, 3});  // complete but recorded out of order
  CheckContext ctx = PlanContext(p);
  ctx.trace = &trace;
  auto diags = RunOne(analysis::MakeTraceSequenceGapCheck(), ctx);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].severity, Severity::kNote);
  EXPECT_NE(diags[0].message.find("out of emission order"),
            std::string::npos);
}

TEST(TraceSequenceGapTest, WildIdsCountExactlyAndStopAtTheLastId) {
  // Ids come from a trace file. A span ending at INT64_MAX, or covering
  // the whole int64 range, is counted exactly, and the hole scan stops at
  // the largest id instead of stepping past INT64_MAX.
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  const std::pair<std::vector<int64_t>, std::string> cases[] = {
      {{kMax - 2, kMax},
       "1 of 3 sequence numbers missing (first holes: 9223372036854775806)"},
      {{0, kMax},
       "9223372036854775806 of 9223372036854775808 sequence numbers missing "
       "(first holes: 1, 2, 3, 4, 5, 6, 7, 8)"},
      {{kMin, kMax},
       "18446744073709551614 of 18446744073709551616 sequence numbers "
       "missing (first holes: -9223372036854775807, -9223372036854775806, "
       "-9223372036854775805, -9223372036854775804, -9223372036854775803, "
       "-9223372036854775802, -9223372036854775801, -9223372036854775800)"},
  };
  mal::Program p = CleanPlan();
  for (const auto& [seqs, message] : cases) {
    std::vector<TraceEvent> trace;
    for (int64_t seq : seqs) {
      TraceEvent e;
      e.event = seq;
      e.state = EventState::kDone;
      trace.push_back(e);
    }
    CheckContext ctx = PlanContext(p);
    ctx.trace = &trace;
    auto diags = RunOne(analysis::MakeTraceSequenceGapCheck(), ctx);
    ASSERT_EQ(diags.size(), 1u) << message;
    EXPECT_EQ(diags[0].severity, Severity::kWarning);
    EXPECT_EQ(diags[0].message, message);
  }
}

TEST(TraceSequenceGapTest, TornTraceCapsDetailedDuplicates) {
  mal::Program p = CleanPlan();
  std::vector<int64_t> seqs;
  for (int64_t q = 0; q < 12; ++q) {
    seqs.push_back(q);
    seqs.push_back(q);  // every number duplicated: 12 > kMaxDetailed
  }
  auto trace = SeqTrace(seqs);
  CheckContext ctx = PlanContext(p);
  ctx.trace = &trace;
  auto diags = RunOne(analysis::MakeTraceSequenceGapCheck(), ctx);
  // 8 detailed + 1 summary, all errors.
  ASSERT_EQ(diags.size(), 9u);
  for (const Diagnostic& d : diags) {
    EXPECT_EQ(d.severity, Severity::kError);
  }
}

TEST(TraceSequenceGapTest, SkippedWithoutATrace) {
  mal::Program p = CleanPlan();
  EXPECT_TRUE(
      RunOne(analysis::MakeTraceSequenceGapCheck(), PlanContext(p)).empty());
}

// ---------------------------------------------------------------------------
// Declared ceilings
// ---------------------------------------------------------------------------

// Every check declares the highest severity it emits, and the optimizer
// pipeline runs only the checks that can emit an error. On the compiled and
// optimized suite plans (with their dot graphs) and on the recorded
// examples/c4_q1 triple, no finding exceeds its check's ceiling in either
// the CLI's context or the pipeline's.
TEST(CheckCeilingTest, SuitePlansAndRecordedExampleStayWithinCeilings) {
  tpch::TpchConfig config;
  config.scale_factor = 0.002;
  auto catalog = tpch::GenerateTpch(config);
  ASSERT_TRUE(catalog.ok());
  for (const tpch::TpchQuery& query : tpch::TpchQueries()) {
    auto compiled = sql::Compiler::CompileSql(&catalog.value(), query.sql);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    CheckContext ctx;
    ctx.registry = engine::ModuleRegistry::Default();
    ctx.program = &compiled.value();
    tests::ExpectFindingsWithinCeilings(ctx, query.id + " compiled");
    for (int m : {0, 16, 128}) {
      mal::Program plan = compiled.value();
      ASSERT_TRUE(optimizer::Pipeline::Default(m).Run(&plan).ok());
      const dot::Graph graph = dot::ProgramToGraph(plan);
      ctx.program = &plan;
      ctx.graph = &graph;
      tests::ExpectFindingsWithinCeilings(
          ctx, query.id + " at mitosis " + std::to_string(m));
      ctx.graph = nullptr;
    }
  }

  const std::string examples = STETHO_EXAMPLES_DIR;
  auto read = [](const std::string& path) {
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "missing " << path;
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  auto plan = mal::ParseProgramLenient(read(examples + "/c4_q1.mal"));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto graph = dot::ParseDot(read(examples + "/c4_q1.dot"));
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  auto trace = scope::ReadTraceFile(examples + "/c4_q1.trace");
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  CheckContext ctx;
  ctx.registry = engine::ModuleRegistry::Default();
  ctx.program = &plan.value();
  ctx.graph = &graph.value();
  ctx.trace = &trace.value();
  tests::ExpectFindingsWithinCeilings(ctx, "examples/c4_q1");
}

}  // namespace
}  // namespace stetho
