#include "viz/virtual_space.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <utility>

#include "common/string_util.h"

namespace stetho::viz {

int VirtualSpace::AddGlyph(Glyph glyph) {
  std::lock_guard<std::mutex> lock(mu_);
  glyph.id = static_cast<int>(glyphs_.size());
  glyphs_.push_back(std::move(glyph));
  next_owned_.push_back(-1);
  last_owned_.push_back(-1);
  IndexOwnerLocked(glyphs_.back().id);
  return glyphs_.back().id;
}

int VirtualSpace::AddGlyphs(std::vector<Glyph> glyphs) {
  if (glyphs.empty()) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  const size_t first = glyphs_.size();
  if (first == 0) {
    glyphs_ = std::move(glyphs);
  } else {
    glyphs_.insert(glyphs_.end(), std::make_move_iterator(glyphs.begin()),
                   std::make_move_iterator(glyphs.end()));
  }
  next_owned_.resize(glyphs_.size(), -1);
  last_owned_.resize(glyphs_.size(), -1);
  // Every glyph may have its own owner: size the index once for that.
  owners_.Reserve(glyphs_.size(), GlyphOwner());
  for (size_t i = first; i < glyphs_.size(); ++i) {
    glyphs_[i].id = static_cast<int>(i);
    IndexOwnerLocked(static_cast<int>(i));
  }
  return static_cast<int>(first);
}

void VirtualSpace::IndexOwnerLocked(int id) {
  const int first = owners_.FindOrInsert(
      glyphs_[static_cast<size_t>(id)].owner, id, GlyphOwner());
  if (first < 0) {  // the owner's first glyph
    last_owned_[static_cast<size_t>(id)] = id;
    return;
  }
  int& last = last_owned_[static_cast<size_t>(first)];
  next_owned_[static_cast<size_t>(last)] = id;
  last = id;
}

Status VirtualSpace::MutateGlyph(int id, const std::function<void(Glyph*)>& fn) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id < 0 || static_cast<size_t>(id) >= glyphs_.size()) {
    return Status::NotFound(StrFormat("no glyph %d", id));
  }
  fn(&glyphs_[static_cast<size_t>(id)]);
  return Status::OK();
}

Status VirtualSpace::SetFill(int id, Color fill) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id < 0 || static_cast<size_t>(id) >= glyphs_.size()) {
    return Status::NotFound(StrFormat("no glyph %d", id));
  }
  glyphs_[static_cast<size_t>(id)].fill = fill;
  return Status::OK();
}

Result<Glyph> VirtualSpace::GetGlyph(int id) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (id < 0 || static_cast<size_t>(id) >= glyphs_.size()) {
    return Status::NotFound(StrFormat("no glyph %d", id));
  }
  return glyphs_[static_cast<size_t>(id)];
}

std::vector<Glyph> VirtualSpace::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Glyph> out = glyphs_;
  std::stable_sort(out.begin(), out.end(),
                   [](const Glyph& a, const Glyph& b) { return a.z < b.z; });
  return out;
}

size_t VirtualSpace::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return glyphs_.size();
}

std::vector<int> VirtualSpace::GlyphsForOwner(const std::string& owner) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int> ids;
  for (int id = owners_.Find(owner, GlyphOwner()); id >= 0;
       id = next_owned_[static_cast<size_t>(id)]) {
    ids.push_back(id);
  }
  return ids;
}

int VirtualSpace::ShapeFor(const std::string& owner) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (int id = owners_.Find(owner, GlyphOwner()); id >= 0;
       id = next_owned_[static_cast<size_t>(id)]) {
    if (glyphs_[static_cast<size_t>(id)].kind == GlyphKind::kShape) {
      return id;
    }
  }
  return -1;
}

Box VirtualSpace::VisibleBounds() const {
  std::lock_guard<std::mutex> lock(mu_);
  double min_x = std::numeric_limits<double>::infinity();
  double min_y = std::numeric_limits<double>::infinity();
  double max_x = -std::numeric_limits<double>::infinity();
  double max_y = -std::numeric_limits<double>::infinity();
  bool any = false;
  for (const Glyph& g : glyphs_) {
    if (!g.visible) continue;
    any = true;
    min_x = std::min(min_x, g.x - g.width / 2.0);
    min_y = std::min(min_y, g.y - g.height / 2.0);
    max_x = std::max(max_x, g.x + g.width / 2.0);
    max_y = std::max(max_y, g.y + g.height / 2.0);
  }
  if (!any) return {};
  return {min_x, min_y, max_x - min_x, max_y - min_y};
}

std::vector<int> BuildScene(const dot::Graph& graph,
                            const layout::GraphLayout& layout,
                            VirtualSpace* space) {
  const size_t num_nodes = std::min(graph.num_nodes(), layout.nodes.size());
  const size_t num_edges = std::min(graph.num_edges(), layout.edges.size());
  // Each node's shape, as a position in `glyphs` until the batch has ids.
  std::vector<int> shapes(graph.num_nodes(), -1);
  std::vector<Glyph> glyphs;
  glyphs.reserve(num_edges + 2 * num_nodes);
  // Edges first (z=0) so shapes (z=1) and labels (z=2) draw above them.
  for (size_t e = 0; e < num_edges; ++e) {
    const layout::EdgeLayout& el = layout.edges[e];
    if (el.points.size() < 2) continue;
    const dot::GraphEdge& edge = graph.edges()[e];
    Glyph& g = glyphs.emplace_back();
    g.kind = GlyphKind::kEdge;
    g.owner = edge.from + "->" + edge.to;
    g.x = el.points.front().x;
    g.y = el.points.front().y;
    g.x2 = el.points.back().x;
    g.y2 = el.points.back().y;
    g.stroke = Color{0x33, 0x33, 0x33};
    g.z = 0;
  }
  for (size_t i = 0; i < num_nodes; ++i) {
    const layout::NodeLayout& nl = layout.nodes[i];
    const dot::GraphNode& node = graph.node(i);
    shapes[i] = static_cast<int>(glyphs.size());
    Glyph& shape = glyphs.emplace_back();
    shape.kind = GlyphKind::kShape;
    shape.owner = node.id;
    shape.x = nl.x;
    shape.y = nl.y;
    shape.width = nl.width;
    shape.height = nl.height;
    shape.fill = Color::Gray();
    shape.z = 1;

    Glyph& text = glyphs.emplace_back();
    text.kind = GlyphKind::kText;
    text.owner = node.id;
    text.x = nl.x;
    text.y = nl.y;
    text.width = nl.width;
    text.height = nl.height;
    text.text = node.label();
    text.z = 2;
  }
  const int first = space->AddGlyphs(std::move(glyphs));
  for (size_t i = 0; i < num_nodes; ++i) shapes[i] += first;
  return shapes;
}

}  // namespace stetho::viz
