// Static-analysis cost on realistic plans: what one abstract-interpreter
// sweep, one full lint-suite run, and the optimizer's pass-equivalence
// differ cost on TPC-H plans, as a function of mitosis expansion (Arg =
// pieces; 0 disables mitosis). The differ runs inside every Pipeline::Run,
// so BM_PipelineWithDiffer is the end-to-end optimizer cost users actually
// pay; the per-sweep numbers bound how that scales with plan size.
// Shape expectation: all three are linear in plan instructions — the
// interpreter is a single forward pass over SSA.

#include <benchmark/benchmark.h>

#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/absint.h"
#include "analysis/hb.h"
#include "analysis/liveness.h"
#include "analysis/runner.h"
#include "bench_util.h"
#include "common/clock.h"
#include "engine/interpreter.h"
#include "engine/kernel.h"
#include "optimizer/pass.h"
#include "profiler/profiler.h"
#include "profiler/sink.h"
#include "sql/compiler.h"

namespace {

using namespace stetho;

/// Compiles `query_id` and expands it with the default pipeline at `pieces`
/// mitosis partitions (0 = no mitosis) — the linted artifact.
mal::Program ExpandedPlan(const char* query_id, int pieces) {
  storage::Catalog& catalog = bench::SharedCatalog(0.01);
  auto base =
      sql::Compiler::CompileSql(&catalog, tpch::GetQuery(query_id).value().sql);
  if (!base.ok()) std::abort();
  mal::Program plan = std::move(base).value();
  optimizer::Pipeline pipeline = optimizer::Pipeline::Default(pieces);
  if (!pipeline.Run(&plan).ok()) std::abort();
  return plan;
}

void BM_AbstractInterpret(benchmark::State& state, const char* query_id) {
  mal::Program plan = ExpandedPlan(query_id, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    analysis::AbstractState facts = analysis::AnalyzeProgram(plan);
    benchmark::DoNotOptimize(facts);
  }
  state.counters["plan_instructions"] = static_cast<double>(plan.size());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(plan.size()));
}

void BM_LintSuite(benchmark::State& state, const char* query_id) {
  mal::Program plan = ExpandedPlan(query_id, static_cast<int>(state.range(0)));
  analysis::CheckContext ctx;
  ctx.program = &plan;
  ctx.registry = engine::ModuleRegistry::Default();
  for (auto _ : state) {
    std::vector<analysis::Diagnostic> diags =
        analysis::Runner::Default().Run(ctx);
    benchmark::DoNotOptimize(diags);
  }
  state.counters["plan_instructions"] = static_cast<double>(plan.size());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(plan.size()));
}

void BM_SummaryDiff(benchmark::State& state, const char* query_id) {
  mal::Program plan = ExpandedPlan(query_id, static_cast<int>(state.range(0)));
  analysis::PlanSummary before = analysis::SummarizeObservable(plan);
  for (auto _ : state) {
    analysis::PlanSummary after = analysis::SummarizeObservable(plan);
    Status st = analysis::CheckSummaryEquivalence(before, after, "bench");
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(after);
  }
  state.counters["sink_columns"] = static_cast<double>(before.columns.size());
  state.counters["plan_instructions"] = static_cast<double>(plan.size());
}

/// Happens-before schedule replay cost on a real trace: execute the
/// expanded plan once under the dataflow scheduler (dop 4) with profiling
/// on, then measure AnalyzeSchedule over the captured events. Shape
/// expectation: O(events * avg-indegree) — one pass over the sorted trace,
/// each start joining its producers' vector clocks (the events and
/// avg_indegree counters make the bound checkable across Args).
void BM_HbReplay(benchmark::State& state, const char* query_id) {
  mal::Program plan = ExpandedPlan(query_id, static_cast<int>(state.range(0)));
  storage::Catalog& catalog = bench::SharedCatalog(0.01);
  profiler::Profiler prof(SteadyClock::Default());
  auto ring = std::make_shared<profiler::RingBufferSink>(1 << 16);
  prof.AddSink(ring);
  engine::Interpreter interp(&catalog);
  engine::ExecOptions opts;
  opts.num_threads = 4;
  opts.profiler = &prof;
  auto r = interp.Execute(plan, opts);
  if (!r.ok()) {
    state.SkipWithError(r.status().ToString().c_str());
    return;
  }
  std::vector<profiler::TraceEvent> trace = ring->Snapshot();
  analysis::ScheduleReport report;
  for (auto _ : state) {
    report = analysis::AnalyzeSchedule(plan, plan.BuildDependencies(),
                                       analysis::TraceIndex(trace));
    benchmark::DoNotOptimize(report);
  }
  state.counters["events"] = static_cast<double>(trace.size());
  state.counters["avg_indegree"] = report.avg_indegree;
  state.counters["plan_instructions"] = static_cast<double>(plan.size());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(trace.size()));
}

/// End-to-end: compile + full default pipeline, which now re-lints and
/// re-diffs the plan after every pass that fired.
void BM_PipelineWithDiffer(benchmark::State& state, const char* query_id) {
  storage::Catalog& catalog = bench::SharedCatalog(0.01);
  auto base =
      sql::Compiler::CompileSql(&catalog, tpch::GetQuery(query_id).value().sql);
  if (!base.ok()) {
    state.SkipWithError("compile failed");
    return;
  }
  int pieces = static_cast<int>(state.range(0));
  for (auto _ : state) {
    mal::Program plan = base.value();
    optimizer::Pipeline pipeline = optimizer::Pipeline::Default(pieces);
    auto fired = pipeline.Run(&plan);
    if (!fired.ok()) {
      state.SkipWithError(fired.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(plan);
  }
}

/// One full memory-lifetime analysis (forward absint + backward liveness +
/// accountant simulation) plus the dop-4 parallel bound — the cost `mal_lint
/// --memory`, the memory checks, and budgeted admission each pay per plan.
void BM_LivenessFootprintImpl(benchmark::State& state, const char* query_id) {
  mal::Program plan = ExpandedPlan(query_id, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const mal::Dependencies deps = plan.BuildDependencies();
    std::vector<analysis::InstructionFacts> facts;
    analysis::AnalyzeProgram(plan, &facts);
    analysis::MemoryReport report = analysis::AnalyzeMemory(plan, facts, deps);
    int64_t bound = analysis::ParallelPeakBound(plan, deps, report, 4);
    benchmark::DoNotOptimize(report);
    benchmark::DoNotOptimize(bound);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(plan.size()));
}

/// The memory_reorder pass on the plan it sees inside
/// Pipeline::Default(pieces): compiled and run through every default pass
/// before it, mitosis included (two AnalyzeMemory runs + greedy list
/// scheduling + validation) — its marginal pipeline cost.
void BM_MemoryReorderImpl(benchmark::State& state, const char* query_id) {
  storage::Catalog& catalog = bench::SharedCatalog(0.01);
  auto base =
      sql::Compiler::CompileSql(&catalog, tpch::GetQuery(query_id).value().sql);
  if (!base.ok()) std::abort();
  mal::Program input = std::move(base).value();
  optimizer::Pipeline pipeline =
      optimizer::Pipeline::Default(static_cast<int>(state.range(0)));
  for (const std::unique_ptr<optimizer::Pass>& pass : pipeline.passes()) {
    if (std::string_view(pass->name()) == "memory_reorder") break;
    if (!pass->Run(&input).ok()) std::abort();
  }
  auto pass = optimizer::MakeMemoryReorderPass();
  for (auto _ : state) {
    mal::Program plan = input;
    auto changed = pass->Run(&plan);
    if (!changed.ok()) std::abort();
    benchmark::DoNotOptimize(plan);
  }
  state.counters["plan_instructions"] = static_cast<double>(input.size());
}

void BM_AbsintQ1(benchmark::State& state) { BM_AbstractInterpret(state, "q1"); }
void BM_AbsintQ3(benchmark::State& state) { BM_AbstractInterpret(state, "q3"); }
void BM_LintQ1(benchmark::State& state) { BM_LintSuite(state, "q1"); }
void BM_LintQ3(benchmark::State& state) { BM_LintSuite(state, "q3"); }
void BM_DiffQ1(benchmark::State& state) { BM_SummaryDiff(state, "q1"); }
void BM_HbReplayQ1(benchmark::State& state) { BM_HbReplay(state, "q1"); }
void BM_HbReplayQ3(benchmark::State& state) { BM_HbReplay(state, "q3"); }
void BM_PipelineQ1(benchmark::State& state) {
  BM_PipelineWithDiffer(state, "q1");
}
void BM_PipelineQ6(benchmark::State& state) {
  BM_PipelineWithDiffer(state, "q6");
}
void BM_LivenessFootprint(benchmark::State& state) {
  BM_LivenessFootprintImpl(state, "q1");
}
void BM_LivenessFootprintQ3(benchmark::State& state) {
  BM_LivenessFootprintImpl(state, "q3");
}
void BM_MemoryReorder(benchmark::State& state) {
  BM_MemoryReorderImpl(state, "q1");
}
void BM_MemoryReorderQ3(benchmark::State& state) {
  BM_MemoryReorderImpl(state, "q3");
}

BENCHMARK(BM_AbsintQ1)->Arg(0)->Arg(8)->Arg(32)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_AbsintQ3)->Arg(0)->Arg(8)->Arg(32)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_LintQ1)->Arg(0)->Arg(8)->Arg(32)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_LintQ3)->Arg(0)->Arg(8)->Arg(32)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_DiffQ1)->Arg(0)->Arg(8)->Arg(32)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_HbReplayQ1)->Arg(0)->Arg(8)->Arg(32)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_HbReplayQ3)->Arg(0)->Arg(8)->Arg(32)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_PipelineQ1)
    ->Arg(0)
    ->Arg(8)
    ->Arg(128)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PipelineQ6)
    ->Arg(0)
    ->Arg(8)
    ->Arg(128)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LivenessFootprint)
    ->Arg(0)
    ->Arg(8)
    ->Arg(32)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_LivenessFootprintQ3)
    ->Arg(0)
    ->Arg(8)
    ->Arg(32)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_MemoryReorder)
    ->Arg(0)
    ->Arg(8)
    ->Arg(32)
    ->Arg(128)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_MemoryReorderQ3)
    ->Arg(0)
    ->Arg(8)
    ->Arg(32)
    ->Arg(128)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
