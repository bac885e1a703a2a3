// Experiment LAYOUT (interactive-scale front end): micro costs of the
// layout/render optimizations that make the F2/C6 pipeline interactive at
// multi-thousand-node plans.
//
// Four before/after pairs, each with its slow path kept as the oracle:
//   - crossing counting: BIT O(E log E) vs the naive pairwise scan,
//   - layout with a cold vs warm LayoutCache (content-hash LRU),
//   - sequential vs pooled per-layer ordering sweeps,
//   - full re-rasterization vs dirty-rect incremental deltas.
// EXPERIMENTS.md § LAYOUT records the acceptance numbers.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/worker_pool.h"
#include "layout/layout_cache.h"
#include "layout/sugiyama.h"
#include "viz/raster.h"
#include "viz/renderer.h"
#include "viz/virtual_space.h"

namespace {

using namespace stetho;

/// Random layered DAG: `layers` ranks of `per_layer` nodes, each node wired
/// to ~edge_prob of the previous rank (same shape as the layout property
/// tests, sized up for measurement).
dot::Graph RandomLayeredDag(uint64_t seed, int layers, int per_layer,
                            double edge_prob) {
  SplitMix64 rng(seed);
  dot::Graph graph("bench");
  for (int l = 0; l < layers; ++l) {
    for (int i = 0; i < per_layer; ++i) {
      int id = l * per_layer + i;
      graph.AddNode("n" + std::to_string(id)).given_label =
          "X_" + std::to_string(id) + " := algebra.select(...)";
    }
  }
  for (int l = 1; l < layers; ++l) {
    for (int i = 0; i < per_layer; ++i) {
      bool has_parent = false;
      for (int j = 0; j < per_layer; ++j) {
        if (rng.NextBool(edge_prob)) {
          graph.AddEdge("n" + std::to_string((l - 1) * per_layer + j),
                        "n" + std::to_string(l * per_layer + i));
          has_parent = true;
        }
      }
      if (!has_parent) {
        graph.AddEdge("n" + std::to_string((l - 1) * per_layer + i % per_layer),
                      "n" + std::to_string(l * per_layer + i));
      }
    }
  }
  return graph;
}

/// ~n-node graph with enough edge density that crossing counting dominates.
dot::Graph DagWithNodes(int n) {
  int per_layer = 40;
  int layers = (n + per_layer - 1) / per_layer;
  return RandomLayeredDag(/*seed=*/7, layers, per_layer, /*edge_prob=*/0.12);
}

void BM_CountCrossingsBIT(benchmark::State& state) {
  dot::Graph graph = DagWithNodes(static_cast<int>(state.range(0)));
  auto layout = layout::LayoutGraph(graph);
  for (auto _ : state) {
    int64_t c = layout::CountCrossings(graph, layout.value());
    benchmark::DoNotOptimize(c);
  }
  state.counters["edges"] = static_cast<double>(graph.num_edges());
  state.counters["crossings"] =
      static_cast<double>(layout::CountCrossings(graph, layout.value()));
}
BENCHMARK(BM_CountCrossingsBIT)->Arg(500)->Arg(2000);

void BM_CountCrossingsNaive(benchmark::State& state) {
  dot::Graph graph = DagWithNodes(static_cast<int>(state.range(0)));
  auto layout = layout::LayoutGraph(graph);
  for (auto _ : state) {
    int64_t c = layout::CountCrossingsNaive(graph, layout.value());
    benchmark::DoNotOptimize(c);
  }
  state.counters["edges"] = static_cast<double>(graph.num_edges());
}
BENCHMARK(BM_CountCrossingsNaive)->Arg(500)->Arg(2000);

void BM_LayoutColdCache(benchmark::State& state) {
  dot::Graph graph = DagWithNodes(static_cast<int>(state.range(0)));
  layout::LayoutCache cache(8);
  for (auto _ : state) {
    cache.Clear();
    auto layout = cache.GetOrCompute(graph);
    benchmark::DoNotOptimize(layout);
  }
}
BENCHMARK(BM_LayoutColdCache)->Arg(500)->Arg(2000);

void BM_LayoutWarmCache(benchmark::State& state) {
  dot::Graph graph = DagWithNodes(static_cast<int>(state.range(0)));
  layout::LayoutCache cache(8);
  (void)cache.GetOrCompute(graph);
  for (auto _ : state) {
    auto layout = cache.GetOrCompute(graph);
    benchmark::DoNotOptimize(layout);
  }
  state.SetLabel("content hash + LRU lookup");
}
BENCHMARK(BM_LayoutWarmCache)->Arg(500)->Arg(2000);

void BM_LayoutSequential(benchmark::State& state) {
  dot::Graph graph = DagWithNodes(static_cast<int>(state.range(0)));
  layout::LayoutOptions options;
  options.parallel_min_nodes = 1 << 30;  // never parallelize
  for (auto _ : state) {
    auto layout = layout::LayoutGraph(graph, options);
    benchmark::DoNotOptimize(layout);
  }
}
BENCHMARK(BM_LayoutSequential)->Arg(2000);

void BM_LayoutParallel(benchmark::State& state) {
  dot::Graph graph = DagWithNodes(static_cast<int>(state.range(0)));
  engine::WorkerPool* pool = engine::WorkerPool::Default();
  pool->EnsureWorkers(static_cast<int>(state.range(1)));
  layout::LayoutOptions options;
  options.pool = pool;
  options.parallel_min_nodes = 1;
  for (auto _ : state) {
    auto layout = layout::LayoutGraph(graph, options);
    benchmark::DoNotOptimize(layout);
  }
  state.counters["workers"] = static_cast<double>(state.range(1));
}
BENCHMARK(BM_LayoutParallel)->Args({2000, 2})->Args({2000, 4});

/// Scene with n glyphs; returns the frame renderer + scene for delta work.
struct RasterSetup {
  std::unique_ptr<viz::VirtualSpace> space;
  viz::Frame frame;
  std::vector<int> shapes;
};

viz::Camera MakeCamera() {
  viz::Camera camera(1280, 800);
  camera.MoveTo(600, 400);
  return camera;
}

RasterSetup MakeRasterSetup(int n) {
  RasterSetup s;
  s.space = std::make_unique<viz::VirtualSpace>();
  int cols = 50;
  for (int i = 0; i < n; ++i) {
    viz::Glyph g;
    g.kind = viz::GlyphKind::kShape;
    g.x = static_cast<double>(i % cols) * 24.0;
    g.y = static_cast<double>(i / cols) * 24.0;
    g.width = 20.0;
    g.height = 16.0;
    g.fill = viz::Color::White();
    s.shapes.push_back(s.space->AddGlyph(g));
  }
  s.frame = viz::Renderer::RenderFrame(*s.space, MakeCamera());
  return s;
}

void BM_FullRasterRedraw(benchmark::State& state) {
  RasterSetup s = MakeRasterSetup(static_cast<int>(state.range(0)));
  viz::Camera camera = MakeCamera();
  int i = 0;
  for (auto _ : state) {
    int glyph = s.shapes[static_cast<size_t>(i++) % s.shapes.size()];
    (void)s.space->MutateGlyph(glyph, [&](viz::Glyph* g) {
      g->fill = (i % 2) != 0 ? viz::Color::Red() : viz::Color::Green();
    });
    viz::Frame frame = viz::Renderer::RenderFrame(*s.space, camera);
    viz::Raster raster = viz::RasterizeFrame(frame);
    benchmark::DoNotOptimize(raster.At(0, 0));
  }
}
BENCHMARK(BM_FullRasterRedraw)->Arg(500)->Arg(2000)->Unit(benchmark::kMicrosecond);

void BM_IncrementalRasterDelta(benchmark::State& state) {
  RasterSetup s = MakeRasterSetup(static_cast<int>(state.range(0)));
  viz::Camera camera = MakeCamera();
  viz::IncrementalRasterizer inc(1280, 800);
  inc.Draw(s.frame);
  int64_t epoch = s.frame.epoch;
  int i = 0;
  for (auto _ : state) {
    int glyph = s.shapes[static_cast<size_t>(i++) % s.shapes.size()];
    (void)s.space->MutateGlyph(glyph, [&](viz::Glyph* g) {
      g->fill = (i % 2) != 0 ? viz::Color::Red() : viz::Color::Green();
    });
    viz::Frame delta = viz::Renderer::RenderDelta(*s.space, camera, epoch);
    epoch = delta.epoch;
    if (!inc.ApplyDelta(delta).ok()) {
      state.SkipWithError("delta rejected");
      return;
    }
    benchmark::DoNotOptimize(inc.raster().At(0, 0));
  }
  state.counters["redrawn_last"] = static_cast<double>(inc.last_redrawn());
}
BENCHMARK(BM_IncrementalRasterDelta)
    ->Arg(500)
    ->Arg(2000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
