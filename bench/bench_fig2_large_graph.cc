// Experiment F2 (paper Fig. 2 + feature claim §1(5)): large query plan
// graphs — "Support for large query plans with graph representation of more
// than 1000 nodes."
//
// Mitosis-partitioned plans are swept from tens to thousands of nodes; each
// stage of the visualization pipeline (dot generation, dot parsing, layered
// layout, glyph scene construction) is timed per size, and so is the whole
// open a replay or the online monitor pays before it can colour a node. The
// paper's claim holds when every stage stays interactive (well under a
// second) beyond 1000 nodes.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "dot/parser.h"
#include "dot/writer.h"
#include "layout/layout_cache.h"
#include "layout/sugiyama.h"
#include "scope/replayer.h"
#include "viz/virtual_space.h"

namespace {

using namespace stetho;

/// Builds the mitosis-inflated plan for `pieces` partitions.
mal::Program PlanWithPieces(int pieces) {
  server::MserverOptions options;
  options.mitosis_pieces = pieces;
  auto server = bench::MakeServer(options, /*scale_factor=*/0.001);
  auto plan = server->Explain(tpch::GetQuery("scan_heavy").value().sql);
  if (!plan.ok()) std::abort();
  return std::move(plan).value();
}

void SetNodeCounters(benchmark::State& state, const dot::Graph& graph) {
  state.counters["nodes"] = static_cast<double>(graph.num_nodes());
  state.counters["edges"] = static_cast<double>(graph.num_edges());
}

void BM_DotGenerate(benchmark::State& state) {
  mal::Program plan = PlanWithPieces(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    std::string text = dot::ProgramToDot(plan);
    benchmark::DoNotOptimize(text);
  }
  auto graph = dot::ParseDot(dot::ProgramToDot(plan));
  SetNodeCounters(state, graph.value());
}
BENCHMARK(BM_DotGenerate)->Arg(0)->Arg(8)->Arg(32)->Arg(128)->Arg(256);

void BM_DotParse(benchmark::State& state) {
  mal::Program plan = PlanWithPieces(static_cast<int>(state.range(0)));
  std::string text = dot::ProgramToDot(plan);
  for (auto _ : state) {
    auto graph = dot::ParseDot(text);
    benchmark::DoNotOptimize(graph);
  }
  SetNodeCounters(state, dot::ParseDot(text).value());
}
BENCHMARK(BM_DotParse)->Arg(0)->Arg(8)->Arg(32)->Arg(128)->Arg(256);

void BM_Layout(benchmark::State& state) {
  mal::Program plan = PlanWithPieces(static_cast<int>(state.range(0)));
  dot::Graph graph = dot::ProgramToGraph(plan);
  for (auto _ : state) {
    auto layout = layout::LayoutGraph(graph);
    benchmark::DoNotOptimize(layout);
  }
  auto layout = layout::LayoutGraph(graph);
  SetNodeCounters(state, graph);
  state.counters["crossings"] =
      static_cast<double>(layout.value().crossings);
}
BENCHMARK(BM_Layout)->Arg(0)->Arg(8)->Arg(32)->Arg(128)->Arg(256);

void BM_SceneBuild(benchmark::State& state) {
  mal::Program plan = PlanWithPieces(static_cast<int>(state.range(0)));
  dot::Graph graph = dot::ProgramToGraph(plan);
  auto layout = layout::LayoutGraph(graph);
  for (auto _ : state) {
    viz::VirtualSpace space;
    viz::BuildScene(graph, layout.value(), &space);
    benchmark::DoNotOptimize(space.size());
  }
  viz::VirtualSpace space;
  viz::BuildScene(graph, layout.value(), &space);
  SetNodeCounters(state, graph);
  state.counters["glyphs"] = static_cast<double>(space.size());
}
BENCHMARK(BM_SceneBuild)->Arg(0)->Arg(8)->Arg(32)->Arg(128)->Arg(256);

/// Opening a plan: the dot text parsed and moved into a replayer whose
/// scene is built over a warm layout cache (the shared
/// LayoutCache::Default() the replayer reads) — what a replay or the
/// online monitor pays before the first node can be coloured. Closing the
/// replayer (joining its dispatch thread) is not part of the open and runs
/// untimed.
void BM_OpenPlan(benchmark::State& state) {
  mal::Program plan = PlanWithPieces(static_cast<int>(state.range(0)));
  const std::string text = dot::ProgramToDot(plan);
  (void)layout::LayoutCache::Default()->GetOrCompute(
      dot::ParseDot(text).value());
  for (auto _ : state) {
    auto graph = dot::ParseDot(text);
    auto replayer =
        scope::OfflineReplayer::Create(std::move(graph).value(), {});
    benchmark::DoNotOptimize(replayer);
    state.PauseTiming();
    replayer.value().reset();
    state.ResumeTiming();
  }
  SetNodeCounters(state, dot::ParseDot(text).value());
}
BENCHMARK(BM_OpenPlan)->Arg(0)->Arg(8)->Arg(32)->Arg(128)->Arg(256);

/// Whole pipeline at the paper's ">1000 nodes" scale, swept past 2000
/// nodes (pieces=256) where the interactive-scale work matters most.
void BM_FullPipelineLargeGraph(benchmark::State& state) {
  mal::Program plan = PlanWithPieces(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    std::string text = dot::ProgramToDot(plan);
    auto graph = dot::ParseDot(text);
    auto layout = layout::LayoutGraph(graph.value());
    viz::VirtualSpace space;
    viz::BuildScene(graph.value(), layout.value(), &space);
    benchmark::DoNotOptimize(space.size());
  }
  auto graph = dot::ParseDot(dot::ProgramToDot(plan));
  SetNodeCounters(state, graph.value());
}
BENCHMARK(BM_FullPipelineLargeGraph)
    ->Arg(128)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

/// Same pipeline, layout served from the content-hash cache — the steady
/// state of replay seeks, session re-focus, and repeated monitoring runs
/// of an unchanged plan.
void BM_FullPipelineWarmLayoutCache(benchmark::State& state) {
  mal::Program plan = PlanWithPieces(static_cast<int>(state.range(0)));
  layout::LayoutCache cache(4);
  {
    auto graph = dot::ParseDot(dot::ProgramToDot(plan));
    (void)cache.GetOrCompute(graph.value());
  }
  for (auto _ : state) {
    std::string text = dot::ProgramToDot(plan);
    auto graph = dot::ParseDot(text);
    auto layout = cache.GetOrCompute(graph.value());
    viz::VirtualSpace space;
    viz::BuildScene(graph.value(), *layout.value(), &space);
    benchmark::DoNotOptimize(space.size());
  }
  auto graph = dot::ParseDot(dot::ProgramToDot(plan));
  SetNodeCounters(state, graph.value());
}
BENCHMARK(BM_FullPipelineWarmLayoutCache)
    ->Arg(128)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

/// Interactive re-entry: the plan is unchanged and already parsed — what a
/// replay seek or session re-focus actually pays for geometry + glyphs: a
/// layout-cache hit plus scene construction. (Coloring updates on a live
/// scene are cheaper still — dirty-glyph deltas, see bench_layout.)
void BM_InteractiveReentry(benchmark::State& state) {
  mal::Program plan = PlanWithPieces(static_cast<int>(state.range(0)));
  dot::Graph graph = dot::ProgramToGraph(plan);
  layout::LayoutCache cache(4);
  (void)cache.GetOrCompute(graph);
  for (auto _ : state) {
    auto layout = cache.GetOrCompute(graph);
    viz::VirtualSpace space;
    viz::BuildScene(graph, *layout.value(), &space);
    benchmark::DoNotOptimize(space.size());
  }
  SetNodeCounters(state, graph);
}
BENCHMARK(BM_InteractiveReentry)
    ->Arg(128)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  using namespace stetho;
  std::printf("=== Fig. 2: plan size vs mitosis partitions ===\n");
  std::printf("%-10s %-8s %-8s\n", "pieces", "nodes", "edges");
  for (int pieces : {0, 8, 32, 128, 256}) {
    mal::Program plan = PlanWithPieces(pieces);
    dot::Graph graph = dot::ProgramToGraph(plan);
    std::printf("%-10d %-8zu %-8zu%s\n", pieces, graph.num_nodes(),
                graph.num_edges(),
                graph.num_nodes() > 1000 ? "   <-- exceeds 1000 nodes" : "");
  }
  std::printf("\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
