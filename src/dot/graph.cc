#include "dot/graph.h"

#include <deque>
#include <utility>

namespace stetho::dot {

void GraphNode::SetAttr(std::string key, std::string value) {
  if (key == "label") {
    given_label = std::move(value);
  } else {
    attrs[std::move(key)] = std::move(value);
  }
}

void Graph::Reserve(size_t nodes, size_t edges) {
  nodes_.reserve(nodes);
  edges_.reserve(edges);
  index_.Reserve(nodes, NodeId());
}

GraphNode& Graph::AddNode(std::string_view id) {
  const int found =
      index_.FindOrInsert(id, static_cast<int>(nodes_.size()), NodeId());
  if (found >= 0) return nodes_[static_cast<size_t>(found)];
  GraphNode& node = nodes_.emplace_back();
  node.id = id;
  return node;
}

GraphEdge& Graph::AddEdge(std::string from, std::string to) {
  AddNode(from);
  AddNode(to);
  return edges_.emplace_back(GraphEdge{std::move(from), std::move(to), {}});
}

int Graph::FindNode(std::string_view id) const {
  return index_.Find(id, NodeId());
}

std::vector<int> Graph::Roots() const {
  std::vector<int> indegree(nodes_.size(), 0);
  for (const GraphEdge& e : edges_) {
    int to = FindNode(e.to);
    if (to >= 0) ++indegree[static_cast<size_t>(to)];
  }
  std::vector<int> roots;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (indegree[i] == 0) roots.push_back(static_cast<int>(i));
  }
  return roots;
}

std::vector<std::vector<int>> Graph::OutAdjacency() const {
  std::vector<std::vector<int>> adj(nodes_.size());
  for (const GraphEdge& e : edges_) {
    int from = FindNode(e.from);
    int to = FindNode(e.to);
    if (from >= 0 && to >= 0) adj[static_cast<size_t>(from)].push_back(to);
  }
  return adj;
}

std::vector<std::vector<int>> Graph::InAdjacency() const {
  std::vector<std::vector<int>> adj(nodes_.size());
  for (const GraphEdge& e : edges_) {
    int from = FindNode(e.from);
    int to = FindNode(e.to);
    if (from >= 0 && to >= 0) adj[static_cast<size_t>(to)].push_back(from);
  }
  return adj;
}

Result<std::vector<int>> Graph::TopologicalOrder() const {
  std::vector<int> indegree(nodes_.size(), 0);
  auto out = OutAdjacency();
  for (const auto& targets : out) {
    for (int t : targets) ++indegree[static_cast<size_t>(t)];
  }
  std::deque<int> ready;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (indegree[i] == 0) ready.push_back(static_cast<int>(i));
  }
  std::vector<int> order;
  order.reserve(nodes_.size());
  while (!ready.empty()) {
    int n = ready.front();
    ready.pop_front();
    order.push_back(n);
    for (int t : out[static_cast<size_t>(n)]) {
      if (--indegree[static_cast<size_t>(t)] == 0) ready.push_back(t);
    }
  }
  if (order.size() != nodes_.size()) {
    return Status::Internal("graph contains a cycle");
  }
  return order;
}

}  // namespace stetho::dot
