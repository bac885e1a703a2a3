// Stress and failure-path tests for the persistent work-stealing dataflow
// scheduler: many concurrent Executes sharing the process-wide WorkerPool
// (the TSan target), trace-contract conformance under that concurrency, and
// the abort-drain guarantee when a kernel fails mid-flight.
#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "analysis/checks.h"
#include "analysis/diagnostic.h"
#include "analysis/facts.h"
#include "common/clock.h"
#include "engine/interpreter.h"
#include "engine/kernel.h"
#include "engine/worker_pool.h"
#include "mal/program.h"
#include "profiler/profiler.h"
#include "profiler/sink.h"
#include "storage/table.h"

namespace stetho::engine {
namespace {

using mal::Argument;
using mal::MalType;
using mal::Program;
using storage::Catalog;
using storage::DataType;
using storage::Schema;
using storage::Table;
using storage::TablePtr;
using storage::Value;

Catalog MakeCatalog() {
  Catalog cat;
  TablePtr t = Table::Make(
      "lineitem", Schema({{"l_partkey", DataType::kInt64},
                          {"l_tax", DataType::kDouble}}));
  for (int64_t i = 0; i < 64; ++i) {
    EXPECT_TRUE(t->AppendRow({Value::Int(i % 7),
                              Value::Double(static_cast<double>(i) / 100.0)})
                    .ok());
  }
  EXPECT_TRUE(cat.AddTable(t).ok());
  return cat;
}

/// A wide plan: one bind fans out into several independent select→projection
/// chains, so the dataflow scheduler has real parallel slack.
Program WidePlan() {
  Program p("user.stress");
  int mvc = p.AddVariable(MalType::Scalar(DataType::kInt64));
  p.Add("sql", "mvc", {mvc}, {});
  int tid = p.AddVariable(MalType::Bat(DataType::kOid));
  p.Add("sql", "tid", {tid},
        {Argument::Var(mvc), Argument::Const(Value::String("sys")),
         Argument::Const(Value::String("lineitem"))});
  int partkey = p.AddVariable(MalType::Bat(DataType::kInt64));
  p.Add("sql", "bind", {partkey},
        {Argument::Var(mvc), Argument::Const(Value::String("sys")),
         Argument::Const(Value::String("lineitem")),
         Argument::Const(Value::String("l_partkey")),
         Argument::Const(Value::Int(0))});
  int tax = p.AddVariable(MalType::Bat(DataType::kDouble));
  p.Add("sql", "bind", {tax},
        {Argument::Var(mvc), Argument::Const(Value::String("sys")),
         Argument::Const(Value::String("lineitem")),
         Argument::Const(Value::String("l_tax")),
         Argument::Const(Value::Int(0))});
  for (int64_t k = 0; k < 6; ++k) {
    int cand = p.AddVariable(MalType::Bat(DataType::kOid));
    p.Add("algebra", "thetaselect", {cand},
          {Argument::Var(partkey), Argument::Var(tid),
           Argument::Const(Value::Int(k)),
           Argument::Const(Value::String("=="))});
    int proj = p.AddVariable(MalType::Bat(DataType::kDouble));
    p.Add("algebra", "projection", {proj},
          {Argument::Var(cand), Argument::Var(tax)});
    p.Add("io", "print", {}, {Argument::Var(proj)});
  }
  return p;
}

std::vector<analysis::Diagnostic> ConformanceDiags(
    const Program& program, const std::vector<profiler::TraceEvent>& trace) {
  const analysis::Facts facts(&program, &trace);
  analysis::CheckContext ctx;
  ctx.program = &program;
  ctx.trace = &trace;
  ctx.facts = &facts;
  std::vector<analysis::Diagnostic> diags;
  analysis::MakeTraceConformanceCheck()->Run(ctx, &diags);
  return diags;
}

/// Many queries execute concurrently on the shared process-wide pool with
/// profiling on; each query's private trace must still satisfy the Fig. 3
/// contract (exactly one start and one done per pc, monotone clock).
TEST(SchedulerStressTest, ConcurrentQueriesKeepTraceContract) {
  Catalog cat = MakeCatalog();
  Program plan = WidePlan();
  ASSERT_TRUE(plan.Validate().ok());

  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 5;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cat, &plan, &failures] {
      for (int q = 0; q < kQueriesPerThread; ++q) {
        profiler::Profiler prof(SteadyClock::Default());
        auto sink = std::make_shared<profiler::RingBufferSink>(1024);
        prof.AddSink(sink);

        Interpreter interp(&cat);
        ExecOptions opts;
        opts.num_threads = 4;
        opts.profiler = &prof;
        auto r = interp.Execute(plan, opts);
        if (!r.ok()) {
          ++failures;
          continue;
        }
        std::vector<profiler::TraceEvent> trace = sink->Snapshot();
        if (trace.size() != 2 * plan.size()) ++failures;
        if (!ConformanceDiags(plan, trace).empty()) ++failures;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

/// Sinks receive events in sequence order even when dop-4 workers emit
/// concurrently: a ring snapshot needs no sort before order-sensitive
/// analysis.
TEST(SchedulerStressTest, Dop4RingSnapshotIsInEventOrder) {
  Catalog cat = MakeCatalog();
  Program plan = WidePlan();
  profiler::Profiler prof(SteadyClock::Default());
  auto sink = std::make_shared<profiler::RingBufferSink>(1 << 14);
  prof.AddSink(sink);
  Interpreter interp(&cat);
  ExecOptions opts;
  opts.num_threads = 4;
  opts.profiler = &prof;
  for (int run = 0; run < 20; ++run) {
    sink->Clear();
    ASSERT_TRUE(interp.Execute(plan, opts).ok());
    std::vector<profiler::TraceEvent> trace = sink->Snapshot();
    ASSERT_EQ(trace.size(), 2 * plan.size());
    for (size_t i = 1; i < trace.size(); ++i) {
      ASSERT_LT(trace[i - 1].event, trace[i].event) << "run " << run;
    }
  }
}

/// The per-query admission slots stamped into stats/trace stay in
/// [0, num_threads) even though pool workers are shared across queries.
TEST(SchedulerStressTest, ThreadIdsAreQueryLocalSlots) {
  Catalog cat = MakeCatalog();
  Program plan = WidePlan();
  Interpreter interp(&cat);
  ExecOptions opts;
  opts.num_threads = 3;
  auto r = interp.Execute(plan, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  for (const InstructionStat& s : r.value().stats) {
    EXPECT_GE(s.thread, 0);
    EXPECT_LT(s.thread, 3);
  }
}

/// Regression: a kernel failing while dependents are queued must surface the
/// error from Execute rather than hanging the scheduler. The failing
/// instruction has both queued dependents (skipped after the abort) and
/// independent siblings (drained normally).
TEST(SchedulerFailureTest, MidFlightKernelFailureDoesNotHang) {
  ModuleRegistry registry;
  ASSERT_TRUE(registry
                  .Register("test", "src",
                            [](KernelArgs& a) {
                              *a.results[0] =
                                  RegisterValue::Scalar(Value::Int(1));
                              return Status::OK();
                            })
                  .ok());
  ASSERT_TRUE(registry
                  .Register("test", "fail",
                            [](KernelArgs&) {
                              return Status::Internal("injected kernel failure");
                            })
                  .ok());
  std::atomic<int> uses{0};
  ASSERT_TRUE(registry
                  .Register("test", "use",
                            [&uses](KernelArgs& a) {
                              ++uses;
                              *a.results[0] = *a.args[0];
                              return Status::OK();
                            })
                  .ok());

  Program p("user.failing");
  int src = p.AddVariable(MalType::Scalar(DataType::kInt64));
  p.Add("test", "src", {src}, {});
  int bad = p.AddVariable(MalType::Scalar(DataType::kInt64));
  p.Add("test", "fail", {bad}, {Argument::Var(src)});
  // Dependents of the failing instruction: must be skipped, not run.
  for (int i = 0; i < 6; ++i) {
    int v = p.AddVariable(MalType::Scalar(DataType::kInt64));
    p.Add("test", "use", {v}, {Argument::Var(bad)});
  }
  // Independent siblings: may run before the abort lands, must drain.
  for (int i = 0; i < 6; ++i) {
    int v = p.AddVariable(MalType::Scalar(DataType::kInt64));
    p.Add("test", "use", {v}, {Argument::Var(src)});
  }
  ASSERT_TRUE(p.Validate().ok());

  Catalog cat;
  Interpreter interp(&cat, &registry);
  ExecOptions opts;
  opts.num_threads = 4;
  auto r = interp.Execute(p, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("injected kernel failure"),
            std::string::npos);
  // Dependents of the failed instruction never ran.
  EXPECT_LE(uses.load(), 6);
}

/// Same failure repeated back-to-back: the shared pool must come out of each
/// aborted query clean enough to serve the next one.
TEST(SchedulerFailureTest, PoolSurvivesRepeatedAborts) {
  ModuleRegistry registry;
  ASSERT_TRUE(registry
                  .Register("test", "fail",
                            [](KernelArgs&) {
                              return Status::Internal("injected kernel failure");
                            })
                  .ok());
  Program p("user.failing");
  int bad = p.AddVariable(MalType::Scalar(DataType::kInt64));
  p.Add("test", "fail", {bad}, {});
  int bad2 = p.AddVariable(MalType::Scalar(DataType::kInt64));
  p.Add("test", "fail", {bad2}, {});
  ASSERT_TRUE(p.Validate().ok());

  Catalog cat;
  Interpreter interp(&cat, &registry);
  for (int i = 0; i < 20; ++i) {
    ExecOptions opts;
    opts.num_threads = 2;
    auto r = interp.Execute(p, opts);
    ASSERT_FALSE(r.ok());
  }

  // And a healthy query still completes on the same pool.
  Catalog healthy = MakeCatalog();
  Interpreter interp2(&healthy);
  ExecOptions opts;
  opts.num_threads = 4;
  auto ok = interp2.Execute(WidePlan(), opts);
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

/// The sequential-anomaly path must not touch the pool: every instruction
/// runs as logical thread 0 regardless of pool state.
TEST(SchedulerStressTest, SequentialPathStaysOffPool) {
  Catalog cat = MakeCatalog();
  Program plan = WidePlan();
  Interpreter interp(&cat);

  WorkerPool::Default()->EnsureWorkers(2);
  int64_t executed_before = WorkerPool::Default()->executed_count();

  ExecOptions opts;
  opts.use_dataflow = false;
  opts.num_threads = 4;
  auto r = interp.Execute(plan, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  for (const InstructionStat& s : r.value().stats) EXPECT_EQ(s.thread, 0);
  EXPECT_EQ(WorkerPool::Default()->executed_count(), executed_before);
}

// The debug-gated scheduler self-check (STETHO_SCHED_SELFCHECK): a healthy
// dataflow run passes with the check enabled — zero violations counted and
// results unchanged — and the switch restores cleanly. The violation path
// itself is exercised post-hoc by the trace replay in hb_test.cc (injecting
// a live dispatch-before-producer bug would mean breaking the scheduler).
TEST(SchedSelfCheckTest, CleanRunPassesWithCheckEnabled) {
  obs::Registry* registry = obs::Registry::Default();
  // Touch the counter so the delta read below cannot miss it.
  registry
      ->GetOrCreateCounter("stetho_sched_selfcheck_violations_total",
                           "Dataflow tasks dispatched before a producer "
                           "completed (STETHO_SCHED_SELFCHECK)")
      ->Increment(0);
  int64_t violations_before =
      registry->CounterValue("stetho_sched_selfcheck_violations_total")
          .value();

  bool was_enabled = SchedSelfCheckEnabled();
  SetSchedSelfCheck(true);
  EXPECT_TRUE(SchedSelfCheckEnabled());

  Catalog cat = MakeCatalog();
  Program plan = WidePlan();
  for (int round = 0; round < 4; ++round) {
    Interpreter interp(&cat);
    ExecOptions opts;
    opts.num_threads = 4;
    auto r = interp.Execute(plan, opts);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  }

  SetSchedSelfCheck(was_enabled);
  EXPECT_EQ(registry->CounterValue("stetho_sched_selfcheck_violations_total")
                .value(),
            violations_before);
}

}  // namespace
// The default dop is the CPUs the calling thread may run on, so a thread
// pinned to one CPU defaults to sequential execution whatever the host's
// core count.
TEST(DefaultDopTest, FollowsTheAffinityMask) {
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_GE(engine::DefaultDop(), 1);
  EXPECT_LE(engine::DefaultDop(), CPU_COUNT(&saved));

  int cpu = 0;
  while (!CPU_ISSET(cpu, &saved)) ++cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const int pinned = engine::DefaultDop();
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(pinned, 1);
}

}  // namespace stetho::engine
