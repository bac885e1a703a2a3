#include <gtest/gtest.h>

#include "common/rng.h"
#include "dot/parser.h"
#include "dot/writer.h"
#include "engine/worker_pool.h"
#include "layout/layout_cache.h"
#include "layout/sugiyama.h"
#include "layout/svg.h"
#include "obs/metrics.h"
#include "sql/compiler.h"
#include "tpch/dbgen.h"

namespace stetho::layout {
namespace {

dot::Graph Diamond() {
  dot::Graph g("diamond");
  g.AddNode("a").given_label = "root";
  g.AddNode("b").given_label = "left";
  g.AddNode("c").given_label = "right";
  g.AddNode("d").given_label = "sink";
  g.AddEdge("a", "b");
  g.AddEdge("a", "c");
  g.AddEdge("b", "d");
  g.AddEdge("c", "d");
  return g;
}

TEST(SugiyamaTest, EmptyGraph) {
  dot::Graph g;
  auto layout = LayoutGraph(g);
  ASSERT_TRUE(layout.ok());
  EXPECT_TRUE(layout.value().nodes.empty());
}

TEST(SugiyamaTest, DiamondLayers) {
  auto layout = LayoutGraph(Diamond());
  ASSERT_TRUE(layout.ok()) << layout.status().ToString();
  const GraphLayout& l = layout.value();
  ASSERT_EQ(l.nodes.size(), 4u);
  EXPECT_EQ(l.nodes[0].layer, 0);
  EXPECT_EQ(l.nodes[1].layer, 1);
  EXPECT_EQ(l.nodes[2].layer, 1);
  EXPECT_EQ(l.nodes[3].layer, 2);
  // Deeper layers have strictly larger y.
  EXPECT_LT(l.nodes[0].y, l.nodes[1].y);
  EXPECT_LT(l.nodes[1].y, l.nodes[3].y);
  // Same layer shares y.
  EXPECT_DOUBLE_EQ(l.nodes[1].y, l.nodes[2].y);
}

TEST(SugiyamaTest, NoOverlapWithinLayer) {
  auto layout = LayoutGraph(Diamond());
  ASSERT_TRUE(layout.ok());
  const auto& n1 = layout.value().nodes[1];
  const auto& n2 = layout.value().nodes[2];
  double gap = std::abs(n1.x - n2.x);
  EXPECT_GE(gap, (n1.width + n2.width) / 2.0);
}

TEST(SugiyamaTest, AllNodesInsideCanvas) {
  auto layout = LayoutGraph(Diamond());
  ASSERT_TRUE(layout.ok());
  for (const NodeLayout& n : layout.value().nodes) {
    EXPECT_GE(n.x - n.width / 2.0, 0.0);
    EXPECT_GE(n.y - n.height / 2.0, 0.0);
    EXPECT_LE(n.x + n.width / 2.0, layout.value().width);
    EXPECT_LE(n.y + n.height / 2.0, layout.value().height);
  }
}

TEST(SugiyamaTest, EdgesConnectPorts) {
  auto layout = LayoutGraph(Diamond());
  ASSERT_TRUE(layout.ok());
  const GraphLayout& l = layout.value();
  ASSERT_EQ(l.edges.size(), 4u);
  for (const EdgeLayout& e : l.edges) {
    ASSERT_EQ(e.points.size(), 2u);
    // Edge goes downward.
    EXPECT_LT(e.points[0].y, e.points[1].y);
  }
}

TEST(SugiyamaTest, RejectsCycles) {
  dot::Graph g;
  g.AddEdge("a", "b");
  g.AddEdge("b", "a");
  EXPECT_FALSE(LayoutGraph(g).ok());
}

TEST(SugiyamaTest, WideLabelWidthsClamped) {
  dot::Graph g;
  g.AddNode("a").given_label = std::string(500, 'x');
  LayoutOptions options;
  auto layout = LayoutGraph(g, options);
  ASSERT_TRUE(layout.ok());
  EXPECT_LE(layout.value().nodes[0].width, options.max_node_width);
}

TEST(SugiyamaTest, BarycenterReducesCrossingsOnRandomDags) {
  // Property: sweeps never leave more crossings than zero sweeps on a
  // batch of random layered DAGs.
  SplitMix64 rng(1234);
  for (int trial = 0; trial < 10; ++trial) {
    dot::Graph g;
    const int kLayers = 4;
    const int kPerLayer = 6;
    for (int l = 0; l < kLayers; ++l) {
      for (int i = 0; i < kPerLayer; ++i) {
        g.AddNode("n" + std::to_string(l * kPerLayer + i));
      }
    }
    for (int l = 0; l + 1 < kLayers; ++l) {
      for (int i = 0; i < kPerLayer; ++i) {
        for (int j = 0; j < kPerLayer; ++j) {
          if (rng.NextBool(0.3)) {
            g.AddEdge("n" + std::to_string(l * kPerLayer + i),
                      "n" + std::to_string((l + 1) * kPerLayer + j));
          }
        }
      }
    }
    LayoutOptions no_sweeps;
    no_sweeps.barycenter_sweeps = 0;
    LayoutOptions with_sweeps;
    with_sweeps.barycenter_sweeps = 4;
    auto before = LayoutGraph(g, no_sweeps);
    auto after = LayoutGraph(g, with_sweeps);
    ASSERT_TRUE(before.ok());
    ASSERT_TRUE(after.ok());
    EXPECT_LE(after.value().crossings, before.value().crossings)
        << "trial " << trial;
  }
}

TEST(SugiyamaTest, ScalesToThousandNodes) {
  // Feature claim §1(5): graphs with more than 1000 nodes are supported.
  dot::Graph g;
  const int kNodes = 1200;
  for (int i = 0; i < kNodes; ++i) {
    g.AddNode("n" + std::to_string(i)).given_label = "op" + std::to_string(i);
  }
  SplitMix64 rng(7);
  for (int i = 1; i < kNodes; ++i) {
    // Tree backbone plus extra edges; always parent < child so it's a DAG.
    int parent = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(i)));
    g.AddEdge("n" + std::to_string(parent), "n" + std::to_string(i));
  }
  auto layout = LayoutGraph(g);
  ASSERT_TRUE(layout.ok());
  EXPECT_EQ(layout.value().nodes.size(), static_cast<size_t>(kNodes));
  EXPECT_GT(layout.value().width, 0);
}

dot::Graph RandomLayeredDag(uint64_t seed, int layers, int per_layer,
                            double edge_prob) {
  SplitMix64 rng(seed);
  dot::Graph g;
  for (int l = 0; l < layers; ++l) {
    for (int i = 0; i < per_layer; ++i) {
      g.AddNode("n" + std::to_string(l * per_layer + i));
    }
  }
  for (int l = 0; l + 1 < layers; ++l) {
    for (int i = 0; i < per_layer; ++i) {
      for (int j = 0; j < per_layer; ++j) {
        if (rng.NextBool(edge_prob)) {
          g.AddEdge("n" + std::to_string(l * per_layer + i),
                    "n" + std::to_string((l + 1) * per_layer + j));
        }
      }
    }
  }
  return g;
}

TEST(CrossingCountTest, TreeMatchesNaiveOracle) {
  // The Fenwick-tree counter must agree with the O(E^2) oracle on every
  // layout, sweep-optimized or not.
  SplitMix64 rng(99);
  for (int trial = 0; trial < 12; ++trial) {
    dot::Graph g = RandomLayeredDag(1000 + trial, 3 + trial % 4,
                                    4 + trial % 5, 0.25 + 0.05 * (trial % 3));
    for (int sweeps : {0, 4}) {
      LayoutOptions options;
      options.barycenter_sweeps = sweeps;
      auto layout = LayoutGraph(g, options);
      ASSERT_TRUE(layout.ok()) << layout.status().ToString();
      EXPECT_EQ(CountCrossings(g, layout.value()),
                CountCrossingsNaive(g, layout.value()))
          << "trial " << trial << " sweeps " << sweeps;
    }
  }
}

TEST(CrossingCountTest, ReportedCrossingsMatchOracle) {
  dot::Graph g = RandomLayeredDag(42, 5, 6, 0.3);
  auto layout = LayoutGraph(g);
  ASSERT_TRUE(layout.ok());
  EXPECT_EQ(layout.value().crossings,
            CountCrossingsNaive(g, layout.value()));
}

TEST(SugiyamaTest, ParallelOrderingMatchesSequential) {
  // The worker-pool sweep path must be bit-identical to the sequential
  // one — parallelism only changes wall-clock, never geometry.
  dot::Graph g = RandomLayeredDag(7, 6, 8, 0.25);
  engine::WorkerPool pool;
  pool.EnsureWorkers(3);
  LayoutOptions sequential;
  sequential.parallel_min_nodes = 1 << 30;
  LayoutOptions parallel;
  parallel.parallel_min_nodes = 1;
  parallel.pool = &pool;
  auto a = LayoutGraph(g, sequential);
  auto b = LayoutGraph(g, parallel);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a.value().nodes.size(), b.value().nodes.size());
  EXPECT_EQ(a.value().crossings, b.value().crossings);
  for (size_t i = 0; i < a.value().nodes.size(); ++i) {
    EXPECT_EQ(a.value().nodes[i].layer, b.value().nodes[i].layer) << i;
    EXPECT_DOUBLE_EQ(a.value().nodes[i].x, b.value().nodes[i].x) << i;
    EXPECT_DOUBLE_EQ(a.value().nodes[i].y, b.value().nodes[i].y) << i;
  }
}

TEST(SugiyamaTest, ParallelPhasesSurviveRepeatedCalls) {
  // Each parallel phase frees its shared state as soon as the last helper
  // reports done. Many layouts above the parallel threshold give tsan many
  // chances to catch a helper touching that state afterwards.
  dot::Graph g = RandomLayeredDag(31, 32, 24, 0.1);
  engine::WorkerPool pool;
  pool.EnsureWorkers(3);
  LayoutOptions options;
  options.pool = &pool;
  ASSERT_GE(g.num_nodes(), static_cast<size_t>(options.parallel_min_nodes));
  auto first = LayoutGraph(g, options);
  ASSERT_TRUE(first.ok());
  for (int run = 0; run < 50; ++run) {
    auto again = LayoutGraph(g, options);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again.value().crossings, first.value().crossings);
  }
}

TEST(SugiyamaTest, EarlyExitNeverWorseThanFullSweeps) {
  // barycenter_sweeps is a ceiling: a huge budget must never end worse
  // than the default (convergence detection keeps the best ordering).
  dot::Graph g = RandomLayeredDag(21, 5, 7, 0.3);
  LayoutOptions defaults;
  LayoutOptions generous;
  generous.barycenter_sweeps = 32;
  auto a = LayoutGraph(g, defaults);
  auto b = LayoutGraph(g, generous);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_LE(b.value().crossings, a.value().crossings);
}

// --- layout cache ---

TEST(LayoutCacheTest, HitReturnsIdenticalGeometry) {
  LayoutCache cache(4);
  dot::Graph g = RandomLayeredDag(5, 4, 5, 0.3);
  obs::Counter* hits = obs::Registry::Default()->GetOrCreateCounter(
      "stetho_layout_cache_hits_total", "");
  obs::Counter* misses = obs::Registry::Default()->GetOrCreateCounter(
      "stetho_layout_cache_misses_total", "");
  int64_t hits0 = hits->value();
  int64_t misses0 = misses->value();

  auto first = cache.GetOrCompute(g);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(misses->value() - misses0, 1);
  auto second = cache.GetOrCompute(g);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(hits->value() - hits0, 1);
  // Same shared layout object — bit-identical geometry by construction.
  EXPECT_EQ(first.value().get(), second.value().get());

  auto oracle = LayoutGraph(g);
  ASSERT_TRUE(oracle.ok());
  ASSERT_EQ(first.value()->nodes.size(), oracle.value().nodes.size());
  for (size_t i = 0; i < oracle.value().nodes.size(); ++i) {
    EXPECT_DOUBLE_EQ(first.value()->nodes[i].x, oracle.value().nodes[i].x);
    EXPECT_DOUBLE_EQ(first.value()->nodes[i].y, oracle.value().nodes[i].y);
  }
}

TEST(LayoutCacheTest, DistinctOptionsMissDistinctEntries) {
  LayoutCache cache(4);
  dot::Graph g = RandomLayeredDag(6, 4, 5, 0.3);
  LayoutOptions wide;
  wide.node_gap = 40;
  ASSERT_TRUE(cache.GetOrCompute(g).ok());
  ASSERT_TRUE(cache.GetOrCompute(g, wide).ok());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(LayoutCache::HashKey(g, {}), LayoutCache::HashKey(g, wide));
}

TEST(LayoutCacheTest, KeyCoversLabelsEdgesAndOptions) {
  // Three nodes, two edges; `mid` labels b, a -> `to` is the second edge.
  auto build = [](const std::string& mid, const std::string& to) {
    dot::Graph g("keyed");
    g.AddNode("a").given_label = "root statement, longer than a word";
    g.AddNode("b").given_label = mid;
    g.AddNode("c").given_label = "leaf";
    g.AddEdge("a", "b");
    g.AddEdge("a", to);
    return g;
  };
  const std::string mid = "X_1 := algebra.select(X_0, 1:lng);";
  const dot::Graph base = build(mid, "c");
  const uint64_t key = LayoutCache::HashKey(base, {});
  EXPECT_EQ(LayoutCache::HashKey(build(mid, "c"), {}), key);

  // Any change of a label: each byte position of the label, a shorter
  // and a longer label.
  for (size_t i = 0; i < mid.size(); ++i) {
    std::string changed = mid;
    changed[i] = static_cast<char>(changed[i] ^ 0x01);
    EXPECT_NE(LayoutCache::HashKey(build(changed, "c"), {}), key) << i;
  }
  EXPECT_NE(LayoutCache::HashKey(build(mid.substr(1), "c"), {}), key);
  EXPECT_NE(LayoutCache::HashKey(build(mid + " ", "c"), {}), key);
  // Bytes moved across the label boundary.
  dot::Graph moved = build(mid, "c");
  moved.node(1).given_label = mid + "l";
  moved.node(2).given_label = "eaf";
  EXPECT_NE(LayoutCache::HashKey(moved, {}), key);

  // Any change of an edge: an endpoint, or one more edge.
  EXPECT_NE(LayoutCache::HashKey(build(mid, "b"), {}), key);
  dot::Graph extra = build(mid, "c");
  extra.AddEdge("b", "c");
  EXPECT_NE(LayoutCache::HashKey(extra, {}), key);

  // Any change of a geometry option.
  std::vector<LayoutOptions> tweaked(10);
  tweaked[0].char_width += 1;
  tweaked[1].node_height += 1;
  tweaked[2].min_node_width += 1;
  tweaked[3].max_node_width += 1;
  tweaked[4].layer_gap += 1;
  tweaked[5].node_gap += 1;
  tweaked[6].margin += 1;
  tweaked[7].barycenter_sweeps += 1;
  tweaked[8].median = !tweaked[8].median;
  tweaked[9].transpose_passes += 1;
  for (size_t i = 0; i < tweaked.size(); ++i) {
    EXPECT_NE(LayoutCache::HashKey(base, tweaked[i]), key) << i;
  }
  // Scheduling fields never change the geometry, so never the key.
  LayoutOptions scheduled;
  scheduled.parallel_min_nodes = 1;
  EXPECT_EQ(LayoutCache::HashKey(base, scheduled), key);
}

TEST(LayoutCacheTest, SizeMismatchOnHitRecomputes) {
  LayoutCache cache(4);
  dot::Graph g = RandomLayeredDag(6, 4, 5, 0.3);
  ASSERT_GT(g.num_edges(), 0u);
  const uint64_t key = LayoutCache::HashKey(g, {});
  obs::Counter* misses = obs::Registry::Default()->GetOrCreateCounter(
      "stetho_layout_cache_misses_total", "");
  // Colliding entries: another graph's layout stored under g's key, with
  // too few nodes, then with the right nodes but too few edges.
  GraphLayout fewer_edges;
  fewer_edges.nodes.resize(g.num_nodes());
  for (GraphLayout planted : {GraphLayout{}, fewer_edges}) {
    cache.Insert(key, std::make_shared<const GraphLayout>(std::move(planted)));
    const int64_t misses_before = misses->value();
    auto got = cache.GetOrCompute(g);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(misses->value() - misses_before, 1);
    EXPECT_EQ(got.value()->nodes.size(), g.num_nodes());
    EXPECT_EQ(got.value()->edges.size(), g.num_edges());
    // The recomputed layout replaced the colliding one.
    auto again = cache.GetOrCompute(g);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again.value().get(), got.value().get());
    EXPECT_EQ(misses->value() - misses_before, 1);
    EXPECT_EQ(cache.size(), 1u);
  }
}

TEST(LayoutCacheTest, LruEvictsOldest) {
  LayoutCache cache(2);
  dot::Graph a = RandomLayeredDag(1, 3, 4, 0.3);
  dot::Graph b = RandomLayeredDag(2, 3, 4, 0.3);
  dot::Graph c = RandomLayeredDag(3, 3, 4, 0.3);
  auto pa = cache.GetOrCompute(a);
  ASSERT_TRUE(pa.ok());
  ASSERT_TRUE(cache.GetOrCompute(b).ok());
  // Touch `a` so `b` is the LRU entry, then insert `c`.
  auto pa2 = cache.GetOrCompute(a);
  ASSERT_TRUE(pa2.ok());
  EXPECT_EQ(pa.value().get(), pa2.value().get());
  ASSERT_TRUE(cache.GetOrCompute(c).ok());
  EXPECT_EQ(cache.size(), 2u);
  // `a` survives (recently used); a recompute of `a` is still a hit.
  auto pa3 = cache.GetOrCompute(a);
  ASSERT_TRUE(pa3.ok());
  EXPECT_EQ(pa.value().get(), pa3.value().get());
}

TEST(LayoutCacheTest, ZeroCapacityAlwaysComputes) {
  LayoutCache cache(0);
  dot::Graph g = RandomLayeredDag(8, 3, 4, 0.3);
  auto a = cache.GetOrCompute(g);
  auto b = cache.GetOrCompute(g);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a.value().get(), b.value().get());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(LayoutCacheTest, PropagatesLayoutErrors) {
  LayoutCache cache(4);
  dot::Graph cyclic;
  cyclic.AddEdge("a", "b");
  cyclic.AddEdge("b", "a");
  EXPECT_FALSE(cache.GetOrCompute(cyclic).ok());
  EXPECT_EQ(cache.size(), 0u);
}

// --- SVG ---

TEST(SvgTest, EmitsNodesAndEdges) {
  auto layout = LayoutGraph(Diamond());
  ASSERT_TRUE(layout.ok());
  std::string svg = LayoutToSvg(Diamond(), layout.value());
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("class=\"node\" id=\"a\""), std::string::npos);
  EXPECT_NE(svg.find("data-from=\"a\" data-to=\"b\""), std::string::npos);
  EXPECT_NE(svg.find(">root<"), std::string::npos);
}

TEST(SvgTest, FillColorFromNodeAttr) {
  dot::Graph g = Diamond();
  g.node(static_cast<size_t>(g.FindNode("b"))).attrs["fillcolor"] = "red";
  auto layout = LayoutGraph(g);
  ASSERT_TRUE(layout.ok());
  std::string svg = LayoutToSvg(g, layout.value());
  EXPECT_NE(svg.find("fill=\"red\""), std::string::npos);
}

TEST(SvgTest, ParseRoundTrip) {
  dot::Graph g = Diamond();
  auto layout = LayoutGraph(g);
  ASSERT_TRUE(layout.ok());
  std::string svg = LayoutToSvg(g, layout.value());
  auto doc = ParseSvg(svg);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc.value().nodes.size(), 4u);
  EXPECT_EQ(doc.value().edges.size(), 4u);
  EXPECT_DOUBLE_EQ(doc.value().width, layout.value().width);
  // Geometry survives.
  const SvgNode& first = doc.value().nodes[0];
  EXPECT_GT(first.width, 0);
  EXPECT_FALSE(first.label.empty());
}

TEST(SvgTest, SvgToGraphRebuildsTopology) {
  dot::Graph g = Diamond();
  auto layout = LayoutGraph(g);
  ASSERT_TRUE(layout.ok());
  auto doc = ParseSvg(LayoutToSvg(g, layout.value()));
  ASSERT_TRUE(doc.ok());
  dot::Graph back = SvgToGraph(doc.value());
  EXPECT_EQ(back.num_nodes(), g.num_nodes());
  EXPECT_EQ(back.num_edges(), g.num_edges());
  int a = back.FindNode("a");
  ASSERT_GE(a, 0);
  EXPECT_EQ(back.node(static_cast<size_t>(a)).label(), "root");
  EXPECT_TRUE(back.TopologicalOrder().ok());
}

TEST(SvgTest, EscapedLabelsSurvive) {
  dot::Graph g;
  g.AddNode("x").given_label = "a < b & \"c\"";
  auto layout = LayoutGraph(g);
  ASSERT_TRUE(layout.ok());
  auto doc = ParseSvg(LayoutToSvg(g, layout.value()));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc.value().nodes[0].label, "a < b & \"c\"");
}

TEST(SvgTest, RejectsNonSvg) {
  EXPECT_FALSE(ParseSvg("<html></html>").ok());
  EXPECT_FALSE(ParseSvg("").ok());
}

// --- full paper workflow: dot -> svg -> in-memory graph ---

TEST(WorkflowTest, DotToSvgToGraphForCompiledQuery) {
  tpch::TpchConfig config;
  config.scale_factor = 0.001;
  auto cat = tpch::GenerateTpch(config);
  ASSERT_TRUE(cat.ok());
  auto program = sql::Compiler::CompileSql(
      &cat.value(), "select l_tax from lineitem where l_partkey = 1");
  ASSERT_TRUE(program.ok());

  // Step 1: dot file parsing.
  auto graph = dot::ParseDot(dot::ProgramToDot(program.value()));
  ASSERT_TRUE(graph.ok());
  // Step 2: intermediate svg representation.
  auto layout = LayoutGraph(graph.value());
  ASSERT_TRUE(layout.ok());
  std::string svg = LayoutToSvg(graph.value(), layout.value());
  // Step 3: svg parsed into the in-memory graph structure.
  auto doc = ParseSvg(svg);
  ASSERT_TRUE(doc.ok());
  dot::Graph final_graph = SvgToGraph(doc.value());
  EXPECT_EQ(final_graph.num_nodes(), program.value().size());
  EXPECT_FALSE(final_graph.Roots().empty());
}

}  // namespace
}  // namespace stetho::layout
