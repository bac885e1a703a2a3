#ifndef STETHO_DOT_GRAPH_H_
#define STETHO_DOT_GRAPH_H_

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/string_index.h"

namespace stetho::dot {

/// The trace↔plan naming rule (paper §3.3): the instruction at pc N is dot
/// node "nN", and its statement text is that node's label. These two
/// functions are the rule's only spelling: "n" followed by the pc in
/// decimal, with no sign and no leading zero.
std::string NodeName(int pc);
/// The pc node `id` names, or -1 unless `id` is exactly NodeName's output
/// for a non-negative int.
int PcOfNode(std::string_view id);

/// A node of a parsed DOT graph. `id` is the DOT identifier ("n12"); the
/// trace↔plan join reads its pc through PcOfNode, and the MAL statement
/// text lives in the "label" attribute.
struct GraphNode {
  std::string id;
  /// The "label" attribute, when one was given. It is held apart from
  /// `attrs`, so a plan node, whose only attribute is its label, needs no
  /// map.
  std::optional<std::string> given_label;
  /// Every other attribute; never holds "label".
  std::map<std::string, std::string> attrs;

  /// The label, or the id when none was given.
  const std::string& label() const { return given_label ? *given_label : id; }

  /// Sets attribute `key`: "label" goes to `given_label`, any other key to
  /// `attrs`.
  void SetAttr(std::string key, std::string value);

  /// Calls fn(key, value) for every attribute in key order, the label at its
  /// sorted place among the others.
  template <typename Fn>
  void ForEachAttr(Fn&& fn) const {
    static const std::string kLabel = "label";
    bool label_pending = given_label.has_value();
    for (const auto& [key, value] : attrs) {
      if (label_pending && kLabel < key) {
        fn(kLabel, *given_label);
        label_pending = false;
      }
      fn(key, value);
    }
    if (label_pending) fn(kLabel, *given_label);
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
  GraphNode& AddNode(std::string_view id);
  /// Adds an edge; endpoints are implicitly created.
  GraphEdge& AddEdge(std::string from, std::string to);

  size_t num_nodes() const { return nodes_.size(); }
  size_t num_edges() const { return edges_.size(); }
  const std::vector<GraphNode>& nodes() const { return nodes_; }
  const std::vector<GraphEdge>& edges() const { return edges_; }
  GraphNode& node(size_t i) { return nodes_[i]; }
  const GraphNode& node(size_t i) const { return nodes_[i]; }

  /// Index of node `id`, or -1.
  int FindNode(std::string_view id) const;

  /// Indices of nodes with no incoming edges (the "root node[s]" used to
  /// traverse the graph).
  std::vector<int> Roots() const;

  /// Outgoing / incoming neighbor indices per node.
  std::vector<std::vector<int>> OutAdjacency() const;
  std::vector<std::vector<int>> InAdjacency() const;

  /// Topological order (Kahn); Internal error when the graph has a cycle.
  Result<std::vector<int>> TopologicalOrder() const;

 private:
  /// Reads node i's id for index_.
  auto NodeId() const {
    return [this](int i) -> const std::string& {
      return nodes_[static_cast<size_t>(i)].id;
    };
  }

  std::string name_ = "G";
  bool directed_ = true;
  std::vector<GraphNode> nodes_;
  std::vector<GraphEdge> edges_;
  // id -> node index. Flat rather than node-based, so adding a node
  // allocates no index entry: FindNode sits on the hot path of dot
  // parsing, adjacency construction, edge routing, and crossing counting.
  StringIndex index_;
};

}  // namespace stetho::dot

#endif  // STETHO_DOT_GRAPH_H_
