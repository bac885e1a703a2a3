#include "layout/layout_cache.h"

#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>

#include "obs/metrics.h"

namespace stetho::layout {
namespace {

// The key mixes the content in 8-byte words, not bytes. Each round xors a
// word into the state, multiplies by an odd constant (murmur3's finalizer
// constant) and folds the high half down, so high input bits reach the low
// key bits too. A round is a bijection of the state, so two graphs whose
// word sequences differ in a single word never collide. The key lives only
// in memory, so its values may change between builds.
constexpr uint64_t kSeed = 0x9e3779b97f4a7c15ull;
constexpr uint64_t kMultiplier = 0xff51afd7ed558ccdull;

void MixWord(uint64_t* h, uint64_t word) {
  *h = (*h ^ word) * kMultiplier;
  *h ^= *h >> 32;
}

void MixString(uint64_t* h, const std::string& s) {
  MixWord(h, s.size());  // length-prefixed: "ab","c" != "a","bc"
  const char* p = s.data();
  size_t left = s.size();
  for (; left >= sizeof(uint64_t); p += sizeof(uint64_t),
                                   left -= sizeof(uint64_t)) {
    uint64_t word = 0;
    std::memcpy(&word, p, sizeof(word));
    MixWord(h, word);
  }
  if (left > 0) {
    uint64_t tail = 0;
    std::memcpy(&tail, p, left);
    MixWord(h, tail);
  }
}

void MixDouble(uint64_t* h, double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  MixWord(h, bits);
}

void MixInt(uint64_t* h, int64_t v) { MixWord(h, static_cast<uint64_t>(v)); }

/// Whether `layout` has `graph`'s node and edge counts. Two graphs whose
/// keys collide are told apart here at least by their sizes, so a
/// collision never hands out a layout that is indexed out of range.
bool Fits(const GraphLayout& layout, const dot::Graph& graph) {
  return layout.nodes.size() == graph.num_nodes() &&
         layout.edges.size() == graph.num_edges();
}

size_t DefaultCapacity() {
  const char* env = std::getenv("STETHO_LAYOUT_CACHE");
  if (env == nullptr || *env == '\0') return LayoutCache::kDefaultCapacity;
  char* end = nullptr;
  long v = std::strtol(env, &end, 10);
  if (end == env || v < 0) return LayoutCache::kDefaultCapacity;
  return static_cast<size_t>(v);
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
  static LayoutCache* cache = new LayoutCache(DefaultCapacity());
  return cache;
}

uint64_t LayoutCache::HashKey(const dot::Graph& graph,
                              const LayoutOptions& options) {
  uint64_t h = kSeed;
  MixInt(&h, static_cast<int64_t>(graph.num_nodes()));
  for (const dot::GraphNode& node : graph.nodes()) {
    MixString(&h, node.id);
    MixString(&h, node.label());
  }
  MixInt(&h, static_cast<int64_t>(graph.num_edges()));
  for (const dot::GraphEdge& edge : graph.edges()) {
    MixString(&h, edge.from);
    MixString(&h, edge.to);
  }
  // Every option that affects geometry; pool / parallel_min_nodes are
  // deliberately absent (parallelism never changes the output).
  MixDouble(&h, options.char_width);
  MixDouble(&h, options.node_height);
  MixDouble(&h, options.min_node_width);
  MixDouble(&h, options.max_node_width);
  MixDouble(&h, options.layer_gap);
  MixDouble(&h, options.node_gap);
  MixDouble(&h, options.margin);
  MixInt(&h, options.barycenter_sweeps);
  MixInt(&h, options.median ? 1 : 0);
  MixInt(&h, options.transpose_passes);
  return h;
}

Result<std::shared_ptr<const GraphLayout>> LayoutCache::GetOrCompute(
    const dot::Graph& graph, const LayoutOptions& options) {
  if (capacity_ == 0) {
    MissCounter()->Increment();
    STETHO_ASSIGN_OR_RETURN(GraphLayout layout, LayoutGraph(graph, options));
    return std::make_shared<const GraphLayout>(std::move(layout));
  }
  uint64_t key = HashKey(graph, options);
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
  STETHO_ASSIGN_OR_RETURN(GraphLayout layout, LayoutGraph(graph, options));
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
