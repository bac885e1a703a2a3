// Experiment C6 (paper §4, work-flow description): per-stage cost of the
// fundamental pipeline both modes share — "the dot file gets parsed and an
// intermediate scalar vector graphics (svg) representation gets created. In
// the next step, the svg file gets parsed and an in memory graph structure
// gets created."
//
// Stage breakdown (dot write, dot parse, layout, svg write, svg parse,
// graph rebuild) over synthetic layered DAGs of 10..2000 nodes.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "dot/parser.h"
#include "dot/writer.h"
#include "layout/layout_cache.h"
#include "layout/svg.h"
#include "layout/sugiyama.h"

namespace {

using namespace stetho;

/// Random layered DAG with n nodes (tree backbone + extra edges).
dot::Graph RandomDag(int n, uint64_t seed = 11) {
  SplitMix64 rng(seed);
  dot::Graph graph("bench");
  for (int i = 0; i < n; ++i) {
    graph.AddNode("n" + std::to_string(i)).given_label =
        "X_" + std::to_string(i) + " := algebra.select(...)";
  }
  for (int i = 1; i < n; ++i) {
    int parent = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(i)));
    graph.AddEdge("n" + std::to_string(parent), "n" + std::to_string(i));
    if (i > 2 && rng.NextBool(0.4)) {
      int extra = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(i)));
      graph.AddEdge("n" + std::to_string(extra), "n" + std::to_string(i));
    }
  }
  return graph;
}

void BM_Stage1_DotWrite(benchmark::State& state) {
  dot::Graph graph = RandomDag(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    std::string text = dot::GraphToDot(graph);
    benchmark::DoNotOptimize(text);
  }
}
BENCHMARK(BM_Stage1_DotWrite)->Arg(10)->Arg(100)->Arg(500)->Arg(2000);

void BM_Stage2_DotParse(benchmark::State& state) {
  std::string text = dot::GraphToDot(RandomDag(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    auto graph = dot::ParseDot(text);
    benchmark::DoNotOptimize(graph);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_Stage2_DotParse)->Arg(10)->Arg(100)->Arg(500)->Arg(2000);

void BM_Stage3_Layout(benchmark::State& state) {
  dot::Graph graph = RandomDag(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto layout = layout::LayoutGraph(graph);
    benchmark::DoNotOptimize(layout);
  }
}
BENCHMARK(BM_Stage3_Layout)->Arg(10)->Arg(100)->Arg(500)->Arg(2000);

/// Stage 3 served from the content-hash layout cache — what re-entering
/// the pipeline with an unchanged plan costs after the front-end work.
void BM_Stage3_LayoutCached(benchmark::State& state) {
  dot::Graph graph = RandomDag(static_cast<int>(state.range(0)));
  layout::LayoutCache cache(4);
  (void)cache.GetOrCompute(graph);
  for (auto _ : state) {
    auto layout = cache.GetOrCompute(graph);
    benchmark::DoNotOptimize(layout);
  }
}
BENCHMARK(BM_Stage3_LayoutCached)->Arg(10)->Arg(100)->Arg(500)->Arg(2000);

void BM_Stage4_SvgWrite(benchmark::State& state) {
  dot::Graph graph = RandomDag(static_cast<int>(state.range(0)));
  auto layout = layout::LayoutGraph(graph);
  for (auto _ : state) {
    std::string svg = layout::LayoutToSvg(graph, layout.value());
    benchmark::DoNotOptimize(svg);
  }
}
BENCHMARK(BM_Stage4_SvgWrite)->Arg(10)->Arg(100)->Arg(500)->Arg(2000);

void BM_Stage5_SvgParse(benchmark::State& state) {
  dot::Graph graph = RandomDag(static_cast<int>(state.range(0)));
  auto layout = layout::LayoutGraph(graph);
  std::string svg = layout::LayoutToSvg(graph, layout.value());
  for (auto _ : state) {
    auto doc = layout::ParseSvg(svg);
    benchmark::DoNotOptimize(doc);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(svg.size()));
}
BENCHMARK(BM_Stage5_SvgParse)->Arg(10)->Arg(100)->Arg(500)->Arg(2000);

void BM_Stage6_GraphRebuild(benchmark::State& state) {
  dot::Graph graph = RandomDag(static_cast<int>(state.range(0)));
  auto layout = layout::LayoutGraph(graph);
  auto doc = layout::ParseSvg(layout::LayoutToSvg(graph, layout.value()));
  for (auto _ : state) {
    dot::Graph rebuilt = layout::SvgToGraph(doc.value());
    benchmark::DoNotOptimize(rebuilt.num_nodes());
  }
}
BENCHMARK(BM_Stage6_GraphRebuild)->Arg(10)->Arg(100)->Arg(500)->Arg(2000);

/// All stages chained, as both Stethoscope modes run them.
void BM_WholeWorkflow(benchmark::State& state) {
  std::string dot_text =
      dot::GraphToDot(RandomDag(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    auto graph = dot::ParseDot(dot_text);
    auto layout = layout::LayoutGraph(graph.value());
    std::string svg = layout::LayoutToSvg(graph.value(), layout.value());
    auto doc = layout::ParseSvg(svg);
    dot::Graph final_graph = layout::SvgToGraph(doc.value());
    benchmark::DoNotOptimize(final_graph.num_nodes());
  }
}
BENCHMARK(BM_WholeWorkflow)
    ->Arg(10)
    ->Arg(100)
    ->Arg(500)
    ->Arg(2000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
