// Mutation harness: a catalog of seeded corruptions — each a realistic way a
// plan, dot graph, or trace can go wrong — run against the full default check
// suite. Every mutation must be caught by the specific check named in its
// table entry; a silent pass is a test failure. This is the end-to-end
// guarantee that the linter's coverage does not regress.

#include <gtest/gtest.h>

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/runner.h"
#include "check_ceilings.h"
#include "dot/writer.h"
#include "engine/kernel.h"
#include "mal/program.h"
#include "profiler/event.h"

namespace stetho {
namespace {

using analysis::CheckContext;
using analysis::Diagnostic;
using analysis::Runner;
using mal::Argument;
using mal::MalType;
using profiler::EventState;
using profiler::TraceEvent;
using storage::DataType;
using storage::Value;

MalType Lng() { return MalType::Scalar(DataType::kInt64); }
MalType BatLng() { return MalType::Bat(DataType::kInt64); }
MalType BatOid() { return MalType::Bat(DataType::kOid); }

/// Everything a lint invocation can see. Plan mutations supply only the
/// program (mal_lint with a single .mal input); graph/trace mutations pair
/// the clean plan with a corrupted artifact, mirroring cross-validation runs.
struct Artifacts {
  mal::Program program;
  std::optional<dot::Graph> graph;
  std::optional<std::vector<TraceEvent>> trace;
};

/// The clean baseline: densebat -> mirror -> batcalc.add -> count -> print.
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

Artifacts Plan(mal::Program p) {
  Artifacts a;
  a.program = std::move(p);
  return a;
}

Artifacts WithGraph(const std::function<void(dot::Graph*)>& corrupt) {
  Artifacts a;
  a.program = CleanPlan();
  dot::Graph g = dot::ProgramToGraph(a.program);
  corrupt(&g);
  a.graph = std::move(g);
  return a;
}

Artifacts WithTrace(const std::function<void(std::vector<TraceEvent>*)>& corrupt) {
  Artifacts a;
  a.program = CleanPlan();
  std::vector<TraceEvent> t = WellFormedTrace(a.program);
  corrupt(&t);
  a.trace = std::move(t);
  return a;
}

struct Mutation {
  const char* name;            // what was corrupted
  const char* expected_check;  // the check that must catch it
  Artifacts (*build)();
};

// ---------------------------------------------------------------------------
// The corruption catalog
// ---------------------------------------------------------------------------

const Mutation kMutations[] = {
    // --- SSA structure ---
    {"use-before-definition", "ssa-def-before-use",
     [] {
       mal::Program p;
       int a = p.AddVariable(Lng());
       int b = p.AddVariable(Lng());
       p.Add("calc", "add", {b},
             {Argument::Var(a), Argument::Const(Value::Int(1))});
       p.Add("sql", "mvc", {a}, {});
       p.Add("io", "print", {}, {Argument::Var(b)});
       return Plan(std::move(p));
     }},
    {"out-of-range-variable", "ssa-def-before-use",
     [] {
       mal::Program p = CleanPlan();
       p.mutable_instruction(2).args[1] = Argument::Var(99);
       return Plan(std::move(p));
     }},
    {"double-assignment", "ssa-single-assignment",
     [] {
       mal::Program p;
       int a = p.AddVariable(Lng());
       p.Add("sql", "mvc", {a}, {});
       p.Add("sql", "mvc", {a}, {});
       p.Add("io", "print", {}, {Argument::Var(a)});
       return Plan(std::move(p));
     }},
    {"dead-pure-instruction", "dead-instruction",
     [] {
       mal::Program p = CleanPlan();
       int d = p.AddVariable(BatOid());
       p.Add("bat", "densebat", {d}, {Argument::Const(Value::Int(4))});
       return Plan(std::move(p));
     }},

    // --- kernel signatures ---
    {"unknown-module", "kernel-signature",
     [] {
       mal::Program p = CleanPlan();
       int x = p.AddVariable(Lng());
       p.Add("zorro", "slash", {x}, {});
       p.Add("io", "print", {}, {Argument::Var(x)});
       return Plan(std::move(p));
     }},
    {"unknown-function-in-known-module", "kernel-signature",
     [] {
       mal::Program p = CleanPlan();
       int x = p.AddVariable(BatOid());
       p.Add("bat", "frobnicate", {x}, {});
       p.Add("io", "print", {}, {Argument::Var(x)});
       return Plan(std::move(p));
     }},
    {"wrong-arity", "kernel-signature",
     [] {
       mal::Program p;
       int b = p.AddVariable(BatOid());
       p.Add("bat", "densebat", {b},
             {Argument::Const(Value::Int(4)), Argument::Const(Value::Int(9))});
       p.Add("io", "print", {}, {Argument::Var(b)});
       return Plan(std::move(p));
     }},
    {"scalar-into-bat-slot", "kernel-signature",
     [] {
       mal::Program p;
       int s = p.AddVariable(Lng());
       p.Add("sql", "mvc", {s}, {});
       int out = p.AddVariable(BatLng());
       p.Add("bat", "mirror", {out}, {Argument::Var(s)});
       p.Add("io", "print", {}, {Argument::Var(out)});
       return Plan(std::move(p));
     }},
    {"batcalc-on-scalars-only", "kernel-signature",
     [] {
       mal::Program p;
       int out = p.AddVariable(BatLng());
       p.Add("batcalc", "add", {out},
             {Argument::Const(Value::Int(1)), Argument::Const(Value::Int(2))});
       p.Add("io", "print", {}, {Argument::Var(out)});
       return Plan(std::move(p));
     }},

    // --- result sinks ---
    {"sink-order-key-collision", "sink-order-key",
     [] {
       mal::Program p;
       int a = p.AddVariable(Lng());
       p.Add("sql", "mvc", {a}, {});
       std::vector<Argument> args(257, Argument::Var(a));
       p.Add("io", "print", {}, std::move(args));
       return Plan(std::move(p));
     }},
    {"unregistered-sink-kernel", "sink-order-key",
     [] {
       mal::Program p;
       int a = p.AddVariable(Lng());
       p.Add("sql", "mvc", {a}, {});
       p.Add("user", "printResult", {}, {Argument::Var(a)});
       return Plan(std::move(p));
     }},
    {"plan-without-sink", "sink-order-key",
     [] {
       mal::Program p;
       int a = p.AddVariable(Lng());
       p.Add("sql", "mvc", {a}, {});
       return Plan(std::move(p));
     }},

    // --- abstract type flow ---
    {"result-declared-wrong-elem", "type-flow",
     [] {
       mal::Program p;
       int a = p.AddVariable(BatOid());
       p.Add("bat", "densebat", {a}, {Argument::Const(Value::Int(4))});
       int n = p.AddVariable(MalType::Scalar(DataType::kDouble));
       p.Add("aggr", "count", {n}, {Argument::Var(a)});  // count yields :lng
       p.Add("io", "print", {}, {Argument::Var(n)});
       return Plan(std::move(p));
     }},
    {"mirror-declared-as-value-bat", "type-flow",
     [] {
       mal::Program p;
       int a = p.AddVariable(BatOid());
       p.Add("bat", "densebat", {a}, {Argument::Const(Value::Int(16))});
       int b = p.AddVariable(BatLng());  // bat.mirror yields head oids
       p.Add("bat", "mirror", {b}, {Argument::Var(a)});
       int n = p.AddVariable(Lng());
       p.Add("aggr", "count", {n}, {Argument::Var(b)});
       p.Add("io", "print", {}, {Argument::Var(n)});
       return Plan(std::move(p));
     }},
    {"int-in-boolean-slot", "type-flow",
     [] {
       mal::Program p;
       int b = p.AddVariable(MalType::Scalar(DataType::kBool));
       p.Add("calc", "not", {b}, {Argument::Const(Value::Int(5))});
       p.Add("io", "print", {}, {Argument::Var(b)});
       return Plan(std::move(p));
     }},
    {"heterogeneous-append", "type-flow",
     [] {
       mal::Program p;
       int a = p.AddVariable(BatOid());
       p.Add("bat", "densebat", {a}, {Argument::Const(Value::Int(4))});
       int c = p.AddVariable(BatLng());
       p.Add("batcalc", "add", {c},
             {Argument::Var(a), Argument::Const(Value::Int(1))});
       int d = p.AddVariable(BatOid());
       p.Add("bat", "append", {d}, {Argument::Var(a), Argument::Var(c)});
       p.Add("io", "print", {}, {Argument::Var(d)});
       return Plan(std::move(p));
     }},

    // --- cardinality flow ---
    {"zip-of-disjoint-cardinalities", "cardinality-contradiction",
     [] {
       mal::Program p;
       int a = p.AddVariable(BatOid());
       p.Add("bat", "densebat", {a}, {Argument::Const(Value::Int(4))});
       int b = p.AddVariable(BatOid());
       p.Add("bat", "densebat", {b}, {Argument::Const(Value::Int(8))});
       int c = p.AddVariable(BatLng());
       p.Add("batcalc", "add", {c}, {Argument::Var(a), Argument::Var(b)});
       p.Add("io", "print", {}, {Argument::Var(c)});
       return Plan(std::move(p));
     }},
    {"candidate-list-exceeds-column", "cardinality-contradiction",
     [] {
       mal::Program p;
       int cand = p.AddVariable(BatOid());
       p.Add("bat", "densebat", {cand}, {Argument::Const(Value::Int(8))});
       int col = p.AddVariable(BatOid());
       p.Add("bat", "densebat", {col}, {Argument::Const(Value::Int(4))});
       int out = p.AddVariable(BatOid());
       p.Add("algebra", "projection", {out},
             {Argument::Var(cand), Argument::Var(col)});
       p.Add("io", "print", {}, {Argument::Var(out)});
       return Plan(std::move(p));
     }},
    {"provably-empty-source", "guaranteed-empty",
     [] {
       mal::Program p;
       int a = p.AddVariable(BatOid());
       p.Add("bat", "densebat", {a}, {Argument::Const(Value::Int(0))});
       int n = p.AddVariable(Lng());
       p.Add("aggr", "count", {n}, {Argument::Var(a)});
       p.Add("io", "print", {}, {Argument::Var(n)});
       return Plan(std::move(p));
     }},

    // --- constant flow / candidate discipline ---
    {"constant-only-expression", "missed-constant-fold",
     [] {
       mal::Program p;
       int x = p.AddVariable(Lng());
       p.Add("calc", "add", {x},
             {Argument::Const(Value::Int(2)), Argument::Const(Value::Int(3))});
       p.Add("io", "print", {}, {Argument::Var(x)});
       return Plan(std::move(p));
     }},
    {"data-bat-as-candidate-list", "order-key-propagation",
     [] {
       mal::Program p;
       int col = p.AddVariable(BatOid());
       p.Add("bat", "densebat", {col}, {Argument::Const(Value::Int(8))});
       int data = p.AddVariable(BatLng());
       p.Add("batcalc", "add", {data},
             {Argument::Var(col), Argument::Const(Value::Int(1))});
       int out = p.AddVariable(BatOid());
       p.Add("algebra", "projection", {out},
             {Argument::Var(data), Argument::Var(col)});
       p.Add("io", "print", {}, {Argument::Var(out)});
       return Plan(std::move(p));
     }},

    // --- dot graph contract ---
    {"dot-label-tampered", "dot-contract",
     [] {
       return WithGraph(
           [](dot::Graph* g) { g->node(2).given_label = "tampered"; });
     }},
    {"dot-nodes-missing", "dot-contract",
     [] {
       return WithGraph([](dot::Graph* g) {
         *g = dot::Graph();        // drop every "nN" node…
         g->AddNode("opaque_name");  // …and add one violating the convention
       });
     }},
    {"dot-extra-edge", "dot-contract",
     [] {
       return WithGraph([](dot::Graph* g) { g->AddEdge("n0", "n4"); });
     }},

    // --- trace contract ---
    {"trace-missing-done", "trace-conformance",
     [] {
       return WithTrace([](std::vector<TraceEvent>* t) {
         t->erase(t->begin() + 5);  // pc=2's done event
       });
     }},
    {"trace-backwards-clock", "trace-conformance",
     [] {
       return WithTrace(
           [](std::vector<TraceEvent>* t) { (*t)[3].time_us = 1; });
     }},
    {"trace-negative-duration", "trace-conformance",
     [] {
       return WithTrace([](std::vector<TraceEvent>* t) { (*t)[1].usec = -5; });
     }},
    {"trace-statement-mismatch", "trace-conformance",
     [] {
       return WithTrace([](std::vector<TraceEvent>* t) {
         (*t)[2].stmt = "X_9 := bat.bogus();";
         (*t)[3].stmt = "X_9 := bat.bogus();";
       });
     }},
    {"trace-double-execution", "trace-conformance",
     [] {
       return WithTrace([](std::vector<TraceEvent>* t) {
         TraceEvent start = (*t)[0];
         TraceEvent done = (*t)[1];
         start.event = 100;
         start.time_us = 1000;
         done.event = 101;
         done.time_us = 1005;
         t->push_back(start);
         t->push_back(done);
       });
     }},
    {"trace-consumer-before-producer-done", "trace-dependency-violation",
     [] {
       return WithTrace([](std::vector<TraceEvent>* t) {
         // Reorder so bat.mirror (pc=1) starts before densebat (pc=0) is
         // done, keeping the clock monotonic so only the happens-before
         // replay can object.
         std::swap((*t)[1], (*t)[2]);
         std::swap((*t)[1].event, (*t)[2].event);
         std::swap((*t)[1].time_us, (*t)[2].time_us);
       });
     }},

    // --- memory lifetime ---
    {"dropped-bat-consumer", "bat-lifetime",
     [] {
       // An effectful producer's BAT result with no reader: allocated,
       // charged to the accountant, and released untouched. (Kernels
       // without a signature are conservatively effectful.)
       mal::Program p = CleanPlan();
       int u = p.AddVariable(BatLng());
       p.Add("user", "generate", {u}, {Argument::Const(Value::Int(8))});
       return Plan(std::move(p));
     }},
    {"exact-materialization-blowup", "memory-blowup",
     [] {
       // The base table is annotated at 64 rows but the plan provably
       // materializes a million-row BAT — an exact cardinality more than
       // 32x the input bytes (the "inflated cardinality" corruption).
       mal::Program p;
       int m = p.AddVariable(Lng());
       p.Add("sql", "mvc", {m}, {});
       int t = p.AddVariable(BatOid());
       p.Add("sql", "tid", {t},
             {Argument::Var(m), Argument::Const(Value::String("sys")),
              Argument::Const(Value::String("tiny"))});
       p.AnnotateCardinality(t, 64, 64);
       int big = p.AddVariable(BatOid());
       p.Add("bat", "densebat", {big},
             {Argument::Const(Value::Int(1000000))});
       int n0 = p.AddVariable(Lng());
       p.Add("aggr", "count", {n0}, {Argument::Var(t)});
       int n1 = p.AddVariable(Lng());
       p.Add("aggr", "count", {n1}, {Argument::Var(big)});
       p.Add("io", "print", {}, {Argument::Var(n0), Argument::Var(n1)});
       return Plan(std::move(p));
     }},
    {"heavy-bat-held-across-peak", "live-range-bloat",
     [] {
       // A ~900 KiB BAT whose only consumer is textually reordered past
       // the plan's memory peak: dataflow would let it die at pc 1, but
       // program order holds it across the peak ten instructions later.
       mal::Program p;
       int a = p.AddVariable(BatOid());
       p.Add("bat", "densebat", {a}, {Argument::Const(Value::Int(100000))});
       std::vector<Argument> printed;
       for (int i = 0; i < 4; ++i) {  // filler work between def and use
         int d = p.AddVariable(BatOid());
         p.Add("bat", "densebat", {d}, {Argument::Const(Value::Int(32))});
         int n = p.AddVariable(Lng());
         p.Add("aggr", "count", {n}, {Argument::Var(d)});
         printed.push_back(Argument::Var(n));
       }
       int big = p.AddVariable(BatOid());  // the peak: ~3.4 MiB live here
       p.Add("bat", "densebat", {big}, {Argument::Const(Value::Int(400000))});
       int nb = p.AddVariable(Lng());
       p.Add("aggr", "count", {nb}, {Argument::Var(big)});
       int na = p.AddVariable(Lng());
       p.Add("aggr", "count", {na}, {Argument::Var(a)});  // held until here
       printed.push_back(Argument::Var(nb));
       printed.push_back(Argument::Var(na));
       p.Add("io", "print", {}, std::move(printed));
       return Plan(std::move(p));
     }},
    {"recorded-rss-above-static-bound", "footprint-conformance",
     [] {
       // The engine accountant reports a live-byte peak the static model
       // cannot explain (an undercounted width looks exactly like this):
       // the bound must dominate every schedule, so this is an error.
       return WithTrace([](std::vector<TraceEvent>* t) {
         (*t)[4].rss_bytes = int64_t{1} << 30;
       });
     }},
};

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

std::vector<Diagnostic> Lint(const Artifacts& a) {
  CheckContext ctx;
  ctx.program = &a.program;
  ctx.registry = engine::ModuleRegistry::Default();
  if (a.graph.has_value()) ctx.graph = &a.graph.value();
  if (a.trace.has_value()) ctx.trace = &a.trace.value();
  return Runner::Default().Run(ctx);
}

TEST(MutationTest, BaselineArtifactsLintClean) {
  Artifacts a;
  a.program = CleanPlan();
  a.graph = dot::ProgramToGraph(a.program);
  a.trace = WellFormedTrace(a.program);
  std::vector<Diagnostic> diags = Lint(a);
  EXPECT_TRUE(diags.empty()) << analysis::FormatDiagnostics(diags);
}

TEST(MutationTest, CatalogMeetsMinimumSize) {
  EXPECT_GE(std::size(kMutations), 20u);
}

TEST(MutationTest, EveryMutationIsCaughtByItsNamedCheck) {
  for (const Mutation& m : kMutations) {
    SCOPED_TRACE(m.name);
    Artifacts a = m.build();
    std::vector<Diagnostic> diags = Lint(a);
    bool caught = false;
    for (const Diagnostic& d : diags) {
      if (d.check_id == m.expected_check) caught = true;
    }
    EXPECT_TRUE(caught) << "silent pass: corruption '" << m.name
                        << "' was not caught by " << m.expected_check
                        << "; diagnostics were:\n"
                        << analysis::FormatDiagnostics(diags);
  }
}

TEST(MutationTest, EveryCheckStaysWithinItsCeiling) {
  for (const Mutation& m : kMutations) {
    Artifacts a = m.build();
    CheckContext ctx;
    ctx.program = &a.program;
    ctx.registry = engine::ModuleRegistry::Default();
    if (a.graph.has_value()) ctx.graph = &a.graph.value();
    if (a.trace.has_value()) ctx.trace = &a.trace.value();
    tests::ExpectFindingsWithinCeilings(ctx, m.name);
  }
}

}  // namespace
}  // namespace stetho
