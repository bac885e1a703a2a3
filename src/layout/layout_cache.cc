#include "layout/layout_cache.h"

#include <string>
#include <utility>

#include "common/hash.h"
#include "obs/metrics.h"

namespace stetho::layout {
namespace {

constexpr uint64_t kSeed = 0x9e3779b97f4a7c15ull;

/// Whether `layout` has `graph`'s node and edge counts. Two graphs whose
/// keys collide are told apart here at least by their sizes, so a
/// collision never hands out a layout that is indexed out of range.
bool Fits(const GraphLayout& layout, const dot::Graph& graph) {
  return layout.nodes.size() == graph.num_nodes() &&
         layout.edges.size() == graph.num_edges();
}

obs::Counter* HitCounter() {
  static obs::Counter* c = obs::Registry::Default()->GetOrCreateCounter(
      "stetho_layout_cache_hits_total",
      "Layout cache lookups served from cached geometry");
  return c;
}

obs::Counter* MissCounter() {
  static obs::Counter* c = obs::Registry::Default()->GetOrCreateCounter(
      "stetho_layout_cache_misses_total",
      "Layout cache lookups that ran the full Sugiyama pipeline");
  return c;
}

}  // namespace

LayoutCache::LayoutCache(size_t capacity) : capacity_(capacity) {}

LayoutCache* LayoutCache::Default() {
  static LayoutCache* cache = new LayoutCache(kDefaultCapacity);
  return cache;
}

uint64_t LayoutCache::HashKey(const dot::Graph& graph) {
  uint64_t h = MixWord(kSeed, graph.num_nodes());
  for (const dot::GraphNode& node : graph.nodes()) {
    h = MixText(MixText(h, node.id), node.label());
  }
  h = MixWord(h, graph.num_edges());
  for (const dot::GraphEdge& edge : graph.edges()) {
    h = MixText(MixText(h, edge.from), edge.to);
  }
  return h;
}

Result<std::shared_ptr<const GraphLayout>> LayoutCache::GetOrCompute(
    const dot::Graph& graph) {
  if (capacity_ == 0) {
    MissCounter()->Increment();
    STETHO_ASSIGN_OR_RETURN(GraphLayout layout, LayoutGraph(graph));
    return std::make_shared<const GraphLayout>(std::move(layout));
  }
  uint64_t key = HashKey(graph);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end() && Fits(*it->second->layout, graph)) {
      mru_.splice(mru_.begin(), mru_, it->second);
      HitCounter()->Increment();
      return it->second->layout;
    }
  }
  // Miss: compute outside the lock so concurrent misses on different
  // graphs do not serialize behind one Sugiyama run.
  MissCounter()->Increment();
  STETHO_ASSIGN_OR_RETURN(GraphLayout layout, LayoutGraph(graph));
  auto shared = std::make_shared<const GraphLayout>(std::move(layout));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end() && Fits(*it->second->layout, graph)) {
    // A concurrent caller inserted the same key first; keep its entry.
    mru_.splice(mru_.begin(), mru_, it->second);
    return it->second->layout;
  }
  InsertLocked(key, shared);
  return shared;
}

void LayoutCache::Insert(uint64_t key,
                         std::shared_ptr<const GraphLayout> layout) {
  if (capacity_ == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  InsertLocked(key, std::move(layout));
}

void LayoutCache::InsertLocked(uint64_t key,
                               std::shared_ptr<const GraphLayout> layout) {
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->layout = std::move(layout);
    mru_.splice(mru_.begin(), mru_, it->second);
    return;
  }
  mru_.push_front(Entry{key, std::move(layout)});
  index_[key] = mru_.begin();
  while (mru_.size() > capacity_) {
    index_.erase(mru_.back().key);
    mru_.pop_back();
  }
}

size_t LayoutCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return mru_.size();
}

void LayoutCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  mru_.clear();
  index_.clear();
}

}  // namespace stetho::layout
