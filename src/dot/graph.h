#ifndef STETHO_DOT_GRAPH_H_
#define STETHO_DOT_GRAPH_H_

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace stetho::dot {

/// A node of a parsed DOT graph. `id` is the DOT identifier ("n12"); the
/// trace↔plan mapping relies on the paper's convention that pc N maps to
/// node "nN" and the MAL statement text lives in the "label" attribute.
struct GraphNode {
  std::string id;
  std::map<std::string, std::string> attrs;

  /// The "label" attribute, or the id when absent.
  const std::string& label() const {
    auto it = attrs.find("label");
    return it != attrs.end() ? it->second : id;
  }
};

struct GraphEdge {
  std::string from;
  std::string to;
  std::map<std::string, std::string> attrs;
};

/// In-memory graph structure built from a dot file (paper §4: "the svg file
/// gets parsed and an in memory graph structure gets created"). Node order
/// is insertion order; ids are unique.
class Graph {
 public:
  Graph() = default;
  explicit Graph(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }
  bool directed() const { return directed_; }
  void set_directed(bool d) { directed_ = d; }

  /// Pre-sizes node and edge storage (a capacity hint, like
  /// std::vector::reserve).
  void Reserve(size_t nodes, size_t edges);

  /// Adds (or merges attributes into) a node.
  GraphNode& AddNode(const std::string& id);
  /// Adds an edge; endpoints are implicitly created.
  GraphEdge& AddEdge(std::string from, std::string to);

  size_t num_nodes() const { return nodes_.size(); }
  size_t num_edges() const { return edges_.size(); }
  const std::vector<GraphNode>& nodes() const { return nodes_; }
  const std::vector<GraphEdge>& edges() const { return edges_; }
  GraphNode& node(size_t i) { return nodes_[i]; }
  const GraphNode& node(size_t i) const { return nodes_[i]; }

  /// Index of node `id`, or -1.
  int FindNode(const std::string& id) const;

  /// Indices of nodes with no incoming edges (the "root node[s]" used to
  /// traverse the graph).
  std::vector<int> Roots() const;

  /// Outgoing / incoming neighbor indices per node.
  std::vector<std::vector<int>> OutAdjacency() const;
  std::vector<std::vector<int>> InAdjacency() const;

  /// Topological order (Kahn); Internal error when the graph has a cycle.
  Result<std::vector<int>> TopologicalOrder() const;

 private:
  std::string name_ = "G";
  bool directed_ = true;
  std::vector<GraphNode> nodes_;
  std::vector<GraphEdge> edges_;
  // id -> node index. Hashed rather than ordered: FindNode sits on the hot
  // path of adjacency construction, edge routing, and crossing counting.
  std::unordered_map<std::string, int> index_;
};

}  // namespace stetho::dot

#endif  // STETHO_DOT_GRAPH_H_
