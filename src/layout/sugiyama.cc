#include "layout/sugiyama.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <numeric>
#include <utility>

#include "engine/worker_pool.h"
#include "obs/span.h"

namespace stetho::layout {
namespace {

/// Assigns each node the longest path length from any root.
Result<std::vector<int>> AssignLayers(const dot::Graph& graph) {
  STETHO_ASSIGN_OR_RETURN(std::vector<int> order, graph.TopologicalOrder());
  auto in = graph.InAdjacency();
  std::vector<int> layer(graph.num_nodes(), 0);
  for (int n : order) {
    int best = 0;
    for (int p : in[static_cast<size_t>(n)]) {
      best = std::max(best, layer[static_cast<size_t>(p)] + 1);
    }
    layer[static_cast<size_t>(n)] = best;
  }
  return layer;
}

/// Fenwick (binary indexed) tree over positions 0..n-1 counting inserted
/// elements; the crossing counters use it to count, for each span in
/// (from, to)-sorted order, how many earlier spans end strictly to its
/// right — an inversion count in O(log n) per span.
class AccumulationTree {
 public:
  explicit AccumulationTree(size_t n) : tree_(n + 1, 0) {}

  void Add(int pos) {
    for (int i = pos + 1; i < static_cast<int>(tree_.size()); i += i & -i) {
      ++tree_[static_cast<size_t>(i)];
    }
  }

  int64_t CountLessEqual(int pos) const {
    int64_t sum = 0;
    for (int i = pos + 1; i > 0; i -= i & -i) {
      sum += tree_[static_cast<size_t>(i)];
    }
    return sum;
  }

 private:
  std::vector<int32_t> tree_;
};

/// Runs fn(0..n-1) with helpers from the pool; the calling thread
/// participates, so progress never depends on a free worker. Work items are
/// claimed from a shared atomic cursor; fn must only write state owned by
/// item i, which keeps the result identical to the sequential loop.
void ParallelFor(engine::WorkerPool* pool, int n,
                 const std::function<void(int)>& fn) {
  if (pool == nullptr || n <= 1) {
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<int> next{0};
  std::mutex mu;
  std::condition_variable cv;
  const int helpers = std::min(n - 1, 3);
  int active = helpers;  // helpers still running; guarded by mu
  pool->EnsureWorkers(helpers);
  for (int h = 0; h < helpers; ++h) {
    pool->Submit([&next, &active, &mu, &cv, &fn, n] {
      int i;
      while ((i = next.fetch_add(1, std::memory_order_relaxed)) < n) fn(i);
      // Count down and notify under the lock: the caller returns, and
      // destroys mu and cv, as soon as it sees active == 0.
      std::lock_guard<std::mutex> lock(mu);
      if (--active == 0) cv.notify_one();
    });
  }
  int i;
  while ((i = next.fetch_add(1, std::memory_order_relaxed)) < n) fn(i);
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&active] { return active == 0; });
}

/// Shared state for the ordering phase. `position[v]` is v's index inside
/// its layer and is kept in sync with `layers` after every mutation.
struct OrderingContext {
  const std::vector<std::vector<int>>& out_adj;
  const std::vector<std::vector<int>>& in_adj;
  const std::vector<int>& layer_of;
  std::vector<std::vector<int>>& layers;
  std::vector<int>& position;
};

/// Crossings between layer `li` and `li+1` for the current ordering.
/// Spans are emitted in from-position order, sorted by (from, to), and
/// inversions counted with the accumulation tree; ties in either endpoint
/// are non-crossings and fall out of the strict count naturally.
int64_t PairCrossings(const OrderingContext& ctx, int li) {
  const auto& lay = ctx.layers[static_cast<size_t>(li)];
  std::vector<std::pair<int, int>> spans;
  for (int u : lay) {
    for (int v : ctx.out_adj[static_cast<size_t>(u)]) {
      if (ctx.layer_of[static_cast<size_t>(v)] == li + 1) {
        spans.emplace_back(ctx.position[static_cast<size_t>(u)],
                           ctx.position[static_cast<size_t>(v)]);
      }
    }
  }
  if (spans.size() < 2) return 0;
  std::sort(spans.begin(), spans.end());
  AccumulationTree tree(ctx.layers[static_cast<size_t>(li) + 1].size());
  int64_t crossings = 0;
  int64_t inserted = 0;
  for (const auto& [from, to] : spans) {
    crossings += inserted - tree.CountLessEqual(to);
    tree.Add(to);
    ++inserted;
  }
  return crossings;
}

/// Total crossings of the current ordering. Layer pairs are independent
/// reads, so with a pool they are counted concurrently and summed in a
/// fixed order.
int64_t TotalCrossings(const OrderingContext& ctx, engine::WorkerPool* pool) {
  int pairs = static_cast<int>(ctx.layers.size()) - 1;
  if (pairs <= 0) return 0;
  std::vector<int64_t> per_pair(static_cast<size_t>(pairs), 0);
  ParallelFor(pool, pairs, [&ctx, &per_pair](int li) {
    per_pair[static_cast<size_t>(li)] = PairCrossings(ctx, li);
  });
  return std::accumulate(per_pair.begin(), per_pair.end(), int64_t{0});
}

/// GKNV weighted median of sorted neighbor positions; `fallback` keeps
/// neighbor-less nodes where they are.
double MedianValue(std::vector<int>& positions, double fallback) {
  if (positions.empty()) return fallback;
  std::sort(positions.begin(), positions.end());
  size_t m = positions.size() / 2;
  if (positions.size() % 2 == 1) return positions[m];
  if (positions.size() == 2) return (positions[0] + positions[1]) / 2.0;
  double left = positions[m - 1] - positions[0];
  double right = positions[positions.size() - 1] - positions[m];
  if (left + right == 0) return (positions[m - 1] + positions[m]) / 2.0;
  return (positions[m - 1] * right + positions[m] * left) / (left + right);
}

double MeanValue(const std::vector<int>& positions, double fallback) {
  if (positions.empty()) return fallback;
  double sum = 0;
  for (int p : positions) sum += p;
  return sum / static_cast<double>(positions.size());
}

/// Reorders one layer by the median/mean of neighbor positions. Keys are
/// precomputed per node — the seed recomputed the barycenter inside the
/// sort comparator, turning every sweep into O(k log k · deg) key work.
void OrderLayer(OrderingContext& ctx, int li, bool down, bool median,
                std::vector<double>& key, std::vector<int>& scratch) {
  auto& lay = ctx.layers[static_cast<size_t>(li)];
  for (int v : lay) {
    const auto& neighbors = down ? ctx.in_adj[static_cast<size_t>(v)]
                                 : ctx.out_adj[static_cast<size_t>(v)];
    scratch.clear();
    for (int n : neighbors) {
      scratch.push_back(ctx.position[static_cast<size_t>(n)]);
    }
    double fallback = ctx.position[static_cast<size_t>(v)];
    key[static_cast<size_t>(v)] =
        median ? MedianValue(scratch, fallback) : MeanValue(scratch, fallback);
  }
  std::stable_sort(lay.begin(), lay.end(), [&key](int a, int b) {
    return key[static_cast<size_t>(a)] < key[static_cast<size_t>(b)];
  });
  for (size_t i = 0; i < lay.size(); ++i) {
    ctx.position[static_cast<size_t>(lay[i])] = static_cast<int>(i);
  }
}

/// One adjacent-transpose pass over layer `li`: swap neighboring nodes
/// whenever that strictly reduces crossings against the two adjacent
/// layers. Reads only the (frozen) positions of adjacent layers and writes
/// only its own layer, so even and odd layers can run in parallel phases.
bool TransposeLayer(OrderingContext& ctx, int li) {
  auto& lay = ctx.layers[static_cast<size_t>(li)];
  bool improved = false;
  for (size_t i = 0; i + 1 < lay.size(); ++i) {
    int u = lay[i];
    int v = lay[i + 1];
    int64_t keep = 0;
    int64_t swapped = 0;
    auto tally = [&ctx, &keep, &swapped](const std::vector<int>& nu,
                                         const std::vector<int>& nv,
                                         int adjacent_layer) {
      for (int a : nu) {
        if (ctx.layer_of[static_cast<size_t>(a)] != adjacent_layer) continue;
        int pa = ctx.position[static_cast<size_t>(a)];
        for (int b : nv) {
          if (ctx.layer_of[static_cast<size_t>(b)] != adjacent_layer) continue;
          int pb = ctx.position[static_cast<size_t>(b)];
          if (pa > pb) {
            ++keep;
          } else if (pb > pa) {
            ++swapped;
          }
        }
      }
    };
    tally(ctx.in_adj[static_cast<size_t>(u)], ctx.in_adj[static_cast<size_t>(v)],
          li - 1);
    tally(ctx.out_adj[static_cast<size_t>(u)],
          ctx.out_adj[static_cast<size_t>(v)], li + 1);
    if (swapped < keep) {
      std::swap(lay[i], lay[i + 1]);
      ctx.position[static_cast<size_t>(lay[i])] = static_cast<int>(i);
      ctx.position[static_cast<size_t>(lay[i + 1])] = static_cast<int>(i) + 1;
      improved = true;
    }
  }
  return improved;
}

}  // namespace

Result<GraphLayout> LayoutGraph(const dot::Graph& graph,
                                const LayoutOptions& options) {
  obs::Span span(obs::Tracer::Default(), "layout", "phase");
  GraphLayout layout;
  size_t n = graph.num_nodes();
  layout.nodes.resize(n);
  layout.edges.resize(graph.num_edges());
  if (n == 0) return layout;

  STETHO_ASSIGN_OR_RETURN(std::vector<int> layer, AssignLayers(graph));
  int num_layers = 1 + *std::max_element(layer.begin(), layer.end());

  // Group nodes per layer, initial order = insertion order.
  std::vector<std::vector<int>> layers(static_cast<size_t>(num_layers));
  for (size_t i = 0; i < n; ++i) {
    layers[static_cast<size_t>(layer[i])].push_back(static_cast<int>(i));
  }

  auto out_adj = graph.OutAdjacency();
  auto in_adj = graph.InAdjacency();

  std::vector<int> position(n, 0);
  auto refresh_positions = [&layers, &position] {
    for (const auto& lay : layers) {
      for (size_t i = 0; i < lay.size(); ++i) {
        position[static_cast<size_t>(lay[i])] = static_cast<int>(i);
      }
    }
  };
  refresh_positions();
  OrderingContext ctx{out_adj, in_adj, layer, layers, position};

  engine::WorkerPool* pool = nullptr;
  if (static_cast<int>(n) >= options.parallel_min_nodes) {
    pool = options.pool != nullptr ? options.pool
                                   : engine::WorkerPool::Default();
  }

  // Crossing reduction: alternate downward (order by parents) and upward
  // (order by children) sweeps, each followed by adjacent-transpose
  // refinement. The best ordering seen — including the initial one — is
  // kept, and the loop exits as soon as a sweep stops improving, so
  // `barycenter_sweeps` is a ceiling rather than a fixed cost.
  int64_t crossings = TotalCrossings(ctx, pool);
  if (options.barycenter_sweeps > 0 && num_layers > 1 && crossings > 0) {
    int64_t best = crossings;
    std::vector<std::vector<int>> best_layers = layers;
    std::vector<double> key(n, 0);
    std::vector<int> scratch;
    std::vector<int> parity_layers[2];
    for (int li = 0; li < num_layers; ++li) {
      parity_layers[li % 2].push_back(li);
    }
    for (int sweep = 0; sweep < options.barycenter_sweeps && best > 0;
         ++sweep) {
      bool down = (sweep % 2 == 0);
      for (int li = down ? 1 : num_layers - 2;
           down ? li < num_layers : li >= 0; down ? ++li : --li) {
        OrderLayer(ctx, li, down, options.median, key, scratch);
      }
      for (int pass = 0; pass < options.transpose_passes; ++pass) {
        std::atomic<bool> changed{false};
        for (const auto& phase : parity_layers) {
          ParallelFor(pool, static_cast<int>(phase.size()),
                      [&ctx, &phase, &changed](int i) {
                        if (TransposeLayer(ctx, phase[static_cast<size_t>(i)])) {
                          changed.store(true, std::memory_order_relaxed);
                        }
                      });
        }
        if (!changed.load(std::memory_order_relaxed)) break;
      }
      int64_t cur = TotalCrossings(ctx, pool);
      if (cur < best) {
        best = cur;
        best_layers = layers;
      } else {
        break;  // converged: this sweep did not improve on the best ordering
      }
    }
    layers = std::move(best_layers);
    refresh_positions();
    crossings = best;
  }

  // Node sizes from labels.
  for (size_t i = 0; i < n; ++i) {
    NodeLayout& nl = layout.nodes[i];
    nl.node = static_cast<int>(i);
    nl.layer = layer[i];
    double w = options.min_node_width +
               options.char_width * static_cast<double>(graph.node(i).label().size());
    nl.width = std::min(w, options.max_node_width);
    nl.height = options.node_height;
  }

  // Coordinate assignment: lay out each layer left-to-right, then center
  // every layer horizontally against the widest one.
  std::vector<double> layer_width(static_cast<size_t>(num_layers), 0);
  for (int li = 0; li < num_layers; ++li) {
    const auto& lay = layers[static_cast<size_t>(li)];
    double w = 0;
    for (size_t i = 0; i < lay.size(); ++i) {
      if (i > 0) w += options.node_gap;
      w += layout.nodes[static_cast<size_t>(lay[i])].width;
    }
    layer_width[static_cast<size_t>(li)] = w;
  }
  double max_width = *std::max_element(layer_width.begin(), layer_width.end());

  for (int li = 0; li < num_layers; ++li) {
    const auto& lay = layers[static_cast<size_t>(li)];
    double x = options.margin +
               (max_width - layer_width[static_cast<size_t>(li)]) / 2.0;
    double y = options.margin + options.node_height / 2.0 +
               static_cast<double>(li) * (options.node_height + options.layer_gap);
    for (int node : lay) {
      NodeLayout& nl = layout.nodes[static_cast<size_t>(node)];
      nl.x = x + nl.width / 2.0;
      nl.y = y;
      x += nl.width + options.node_gap;
    }
  }

  layout.width = max_width + 2 * options.margin;
  layout.height = options.margin * 2 + options.node_height +
                  static_cast<double>(num_layers - 1) *
                      (options.node_height + options.layer_gap);

  // Edge routing: straight polyline bottom-port -> top-port.
  for (size_t e = 0; e < graph.num_edges(); ++e) {
    const dot::GraphEdge& edge = graph.edges()[e];
    int from = graph.FindNode(edge.from);
    int to = graph.FindNode(edge.to);
    EdgeLayout& el = layout.edges[e];
    el.edge = static_cast<int>(e);
    if (from < 0 || to < 0) continue;
    const NodeLayout& a = layout.nodes[static_cast<size_t>(from)];
    const NodeLayout& b = layout.nodes[static_cast<size_t>(to)];
    el.points.push_back({a.x, a.y + a.height / 2.0});
    el.points.push_back({b.x, b.y - b.height / 2.0});
  }

  // Within a layer x grows with position (widths are positive), so the
  // ordering-based count equals the coordinate-based CountCrossings.
  layout.crossings = crossings;
  return layout;
}

int64_t CountCrossings(const dot::Graph& graph, const GraphLayout& layout) {
  // Same-layer-pair spans sorted by (x_from, x_to); an accumulation tree
  // counts, per span, the earlier spans ending strictly to its right —
  // exactly the strict interleavings the naive pairwise scan counts, in
  // O(E log E) instead of O(E^2).
  struct Span {
    int layer;
    double x_from;
    double x_to;
  };
  std::vector<Span> spans;
  spans.reserve(graph.num_edges());
  for (const dot::GraphEdge& edge : graph.edges()) {
    int from = graph.FindNode(edge.from);
    int to = graph.FindNode(edge.to);
    if (from < 0 || to < 0) continue;
    const NodeLayout& a = layout.nodes[static_cast<size_t>(from)];
    const NodeLayout& b = layout.nodes[static_cast<size_t>(to)];
    if (b.layer != a.layer + 1) continue;  // long edges approximated away
    spans.push_back({a.layer, a.x, b.x});
  }
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.layer != b.layer) return a.layer < b.layer;
    if (a.x_from != b.x_from) return a.x_from < b.x_from;
    return a.x_to < b.x_to;
  });
  int64_t crossings = 0;
  std::vector<double> targets;
  size_t i = 0;
  while (i < spans.size()) {
    size_t j = i;
    while (j < spans.size() && spans[j].layer == spans[i].layer) ++j;
    targets.clear();
    for (size_t k = i; k < j; ++k) targets.push_back(spans[k].x_to);
    std::sort(targets.begin(), targets.end());
    targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
    AccumulationTree tree(targets.size());
    int64_t inserted = 0;
    for (size_t k = i; k < j; ++k) {
      int rank = static_cast<int>(
          std::lower_bound(targets.begin(), targets.end(), spans[k].x_to) -
          targets.begin());
      crossings += inserted - tree.CountLessEqual(rank);
      tree.Add(rank);
      ++inserted;
    }
    i = j;
  }
  return crossings;
}

int64_t CountCrossingsNaive(const dot::Graph& graph,
                            const GraphLayout& layout) {
  // The seed's O(E^2) pairwise scan, kept verbatim as the oracle for the
  // BIT-based CountCrossings.
  struct Span {
    int layer;
    double x_from;
    double x_to;
  };
  std::vector<Span> spans;
  spans.reserve(graph.num_edges());
  for (const dot::GraphEdge& edge : graph.edges()) {
    int from = graph.FindNode(edge.from);
    int to = graph.FindNode(edge.to);
    if (from < 0 || to < 0) continue;
    const NodeLayout& a = layout.nodes[static_cast<size_t>(from)];
    const NodeLayout& b = layout.nodes[static_cast<size_t>(to)];
    if (b.layer != a.layer + 1) continue;
    spans.push_back({a.layer, a.x, b.x});
  }
  int64_t crossings = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    for (size_t j = i + 1; j < spans.size(); ++j) {
      if (spans[i].layer != spans[j].layer) continue;
      double d1 = spans[i].x_from - spans[j].x_from;
      double d2 = spans[i].x_to - spans[j].x_to;
      if (d1 * d2 < 0) ++crossings;
    }
  }
  return crossings;
}

}  // namespace stetho::layout
