#ifndef STETHO_LAYOUT_SUGIYAMA_H_
#define STETHO_LAYOUT_SUGIYAMA_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "dot/graph.h"

namespace stetho::engine {
class WorkerPool;
}  // namespace stetho::engine

namespace stetho::layout {

struct Point {
  double x = 0;
  double y = 0;
};

/// Geometry of every layout, in world units: a node is kNodeHeight tall
/// and as wide as its label estimate (kMinNodeWidth plus kCharWidth per
/// character) up to kMaxNodeWidth.
inline constexpr double kCharWidth = 7.0;
inline constexpr double kNodeHeight = 28.0;
inline constexpr double kMinNodeWidth = 40.0;
inline constexpr double kMaxNodeWidth = 420.0;
inline constexpr double kLayerGap = 56.0;  ///< vertical gap between layers
inline constexpr double kNodeGap = 24.0;   ///< horizontal gap within a layer
inline constexpr double kMargin = 24.0;

/// Crossing-reduction effort and scheduling of the layered (Sugiyama-style)
/// DAG layout.
struct LayoutOptions {
  /// Maximum crossing-reduction sweeps; 0 disables ordering entirely
  /// (insertion order is kept). Sweeps stop early once a sweep no longer
  /// improves the crossing count, so this is a ceiling, not a fixed cost.
  int barycenter_sweeps = 4;
  /// Pool for per-layer parallel phases (transpose runs even/odd layers
  /// concurrently; crossing counts run per layer pair). nullptr uses
  /// engine::WorkerPool::Default(). Results are identical with or without a
  /// pool — parallelism only changes scheduling, never the ordering.
  engine::WorkerPool* pool = nullptr;
  /// Graphs below this node count run single-threaded regardless of pool.
  int parallel_min_nodes = 768;
};

/// Placement of one node; (x, y) is the node center.
struct NodeLayout {
  int node = -1;   ///< index into Graph::nodes()
  int layer = 0;
  double x = 0;
  double y = 0;
  double width = 0;
  double height = 0;
};

/// Routed edge: polyline from the source's bottom port to the target's top
/// port.
struct EdgeLayout {
  int edge = -1;   ///< index into Graph::edges()
  std::vector<Point> points;
};

/// Complete layout of a graph.
struct GraphLayout {
  double width = 0;
  double height = 0;
  std::vector<NodeLayout> nodes;  ///< indexed like Graph::nodes()
  std::vector<EdgeLayout> edges;  ///< indexed like Graph::edges()

  /// Number of edge crossings in the final ordering (a layout quality
  /// metric; exposed for tests and the layout benchmark).
  int64_t crossings = 0;
};

/// Computes a layered layout of a DAG: longest-path layer assignment,
/// GKNV median crossing reduction with adjacent-transpose refinement
/// and early-exit convergence, and sequential coordinate assignment with
/// per-layer centering. This is the GraphViz-dot substitute the Stethoscope
/// pipeline uses to place MAL plan graphs. Fails on cyclic graphs.
Result<GraphLayout> LayoutGraph(const dot::Graph& graph,
                                const LayoutOptions& options = {});

/// Counts edge crossings between consecutive layers for a given ordering
/// with an accumulation tree (binary indexed tree): O(E log E) instead of
/// the pairwise O(E^2) scan. Exact same count as CountCrossingsNaive.
int64_t CountCrossings(const dot::Graph& graph, const GraphLayout& layout);

/// The original pairwise crossing counter, kept as the oracle for property
/// tests against the BIT-based CountCrossings.
int64_t CountCrossingsNaive(const dot::Graph& graph,
                            const GraphLayout& layout);

}  // namespace stetho::layout

#endif  // STETHO_LAYOUT_SUGIYAMA_H_
