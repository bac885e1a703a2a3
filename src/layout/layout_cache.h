#ifndef STETHO_LAYOUT_LAYOUT_CACHE_H_
#define STETHO_LAYOUT_LAYOUT_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/status.h"
#include "dot/graph.h"
#include "layout/sugiyama.h"

namespace stetho::layout {

/// Content-hash-keyed LRU cache of computed layouts.
///
/// Replay seeks, rewind, session re-focus, and repeated MonitorQuery runs
/// of the same plan all re-enter the layout stage with an unchanged graph;
/// the cache turns those calls into a hash of the graph content plus a map
/// lookup, returning a shared_ptr to the immutable geometry. Layouts are
/// computed with the default LayoutOptions, so the key covers the graph
/// alone: node ids, labels and edge endpoints.
/// A hit whose layout has another node or edge count than the graph (a
/// key collision) is treated as a miss, so a returned layout is always
/// indexed like the graph.
///
/// Hits and misses are exported as `stetho_layout_cache_hits_total` /
/// `stetho_layout_cache_misses_total`. A capacity of 0 disables caching:
/// every call computes and nothing is stored. The process-wide Default()
/// holds kDefaultCapacity entries.
class LayoutCache {
 public:
  /// Layouts Default() keeps. Chosen, not measured: the 13 built-in
  /// queries at two mitosis widths fit.
  static constexpr size_t kDefaultCapacity = 32;

  explicit LayoutCache(size_t capacity = kDefaultCapacity);

  LayoutCache(const LayoutCache&) = delete;
  LayoutCache& operator=(const LayoutCache&) = delete;

  /// Process-wide shared instance of kDefaultCapacity entries.
  static LayoutCache* Default();

  /// Returns the cached layout for `graph`, computing and inserting it on
  /// a miss. The layout is computed outside the cache lock, so concurrent
  /// misses on different graphs do not serialize.
  Result<std::shared_ptr<const GraphLayout>> GetOrCompute(
      const dot::Graph& graph);

  /// Content hash of the graph, mixed in 8-byte words — the cache key.
  /// Held only in memory, never stored. Exposed for tests.
  static uint64_t HashKey(const dot::Graph& graph);

  /// Stores `layout` under `key` as most recently used, replacing any
  /// entry there, as a miss does. Exposed for tests that plant a
  /// colliding entry.
  void Insert(uint64_t key, std::shared_ptr<const GraphLayout> layout);

  size_t size() const;
  size_t capacity() const { return capacity_; }
  void Clear();

 private:
  struct Entry {
    uint64_t key = 0;
    std::shared_ptr<const GraphLayout> layout;
  };

  void InsertLocked(uint64_t key, std::shared_ptr<const GraphLayout> layout);

  const size_t capacity_;
  mutable std::mutex mu_;
  std::list<Entry> mru_;  // front = most recently used
  std::unordered_map<uint64_t, std::list<Entry>::iterator> index_;
};

}  // namespace stetho::layout

#endif  // STETHO_LAYOUT_LAYOUT_CACHE_H_
