#ifndef STETHO_VIZ_VIRTUAL_SPACE_H_
#define STETHO_VIZ_VIRTUAL_SPACE_H_

#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/string_index.h"
#include "dot/graph.h"
#include "layout/sugiyama.h"
#include "viz/color.h"

namespace stetho::viz {

/// Kinds of fundamental graphical objects — ZVTM's glyph model (paper §3.1:
/// a two-node graph is represented by two shape glyphs, two text glyphs and
/// one edge glyph).
enum class GlyphKind { kShape, kText, kEdge };

/// One graphical object on the canvas. World coordinates; (x, y) is the
/// center for shapes/texts and unused for edges (which carry endpoints).
struct Glyph {
  int id = -1;
  GlyphKind kind = GlyphKind::kShape;
  std::string owner;  ///< graph node/edge id this glyph renders ("n3")
  double x = 0;
  double y = 0;
  double width = 0;
  double height = 0;
  std::string text;       // text glyphs
  double x2 = 0, y2 = 0;  // edge glyphs: second endpoint
  Color fill = Color::Gray();
  Color stroke = Color::Black();
  bool visible = true;
  int z = 0;  ///< draw order (higher on top)
};

/// An axis-aligned box in world coordinates: top-left corner and size.
struct Box {
  double x = 0;
  double y = 0;
  double width = 0;
  double height = 0;
};

/// The canvas all glyphs live on — ZVTM's virtual space. Thread-safe: the
/// event-dispatch thread mutates glyph state while analysis threads read
/// snapshots.
class VirtualSpace {
 public:
  VirtualSpace() = default;

  /// Adds a glyph, returns its id.
  int AddGlyph(Glyph glyph);

  /// Adds a batch of glyphs under one lock acquisition; returns the id of
  /// the first (ids are consecutive). Scene construction for a
  /// thousand-node plan is one lock round-trip instead of thousands, and an
  /// empty space adopts the batch's storage instead of moving each glyph.
  int AddGlyphs(std::vector<Glyph> glyphs);

  /// Runs `fn` on the glyph under the lock; NotFound for bad ids. `fn`
  /// must leave the glyph's id and owner as they are: they key the owner
  /// index.
  Status MutateGlyph(int id, const std::function<void(Glyph*)>& fn);

  /// Sets the fill color; NotFound for bad ids. The coloring hot path
  /// (replay, online monitor) goes through this instead of MutateGlyph.
  Status SetFill(int id, Color fill);

  /// Copy of one glyph.
  Result<Glyph> GetGlyph(int id) const;

  /// Copy of all glyphs in z-then-insertion order.
  std::vector<Glyph> Snapshot() const;

  size_t size() const;

  /// Ids of the glyphs owned by `owner` (a graph node or edge id), in id
  /// order.
  std::vector<int> GlyphsForOwner(const std::string& owner) const;

  /// Id of the first shape glyph owned by `owner`, or -1.
  int ShapeFor(const std::string& owner) const;

  /// Bounding box of all visible glyphs (world coords), read in one pass
  /// under one lock; all zeros when no glyph is visible.
  Box VisibleBounds() const;

 private:
  /// Reads glyph i's owner for owners_.
  auto GlyphOwner() const {
    return [this](int i) -> const std::string& {
      return glyphs_[static_cast<size_t>(i)].owner;
    };
  }
  /// Appends the newly added glyph `id` to its owner's chain.
  void IndexOwnerLocked(int id);

  mutable std::mutex mu_;
  // Everything below is guarded by mu_.
  std::vector<Glyph> glyphs_;
  // Owner index: one entry per owner, its first glyph; each glyph links to
  // the next glyph of its owner (-1: none), so a chain ascends by id, and
  // an owner's first glyph records the chain's last.
  StringIndex owners_;
  std::vector<int> next_owned_;
  std::vector<int> last_owned_;
};

/// Builds the scene for a laid-out graph: per node one shape glyph + one
/// text glyph, per edge one edge glyph — the ZGrviewer object model.
/// `layout` is indexed like `graph` (layout::LayoutGraph's output); a layout
/// shorter than the graph builds the glyphs it covers. Glyphs are assembled
/// outside the lock and added as one batch. Returns each node's shape glyph
/// id in graph order (-1 for a node the layout does not cover).
std::vector<int> BuildScene(const dot::Graph& graph,
                            const layout::GraphLayout& layout,
                            VirtualSpace* space);

}  // namespace stetho::viz

#endif  // STETHO_VIZ_VIRTUAL_SPACE_H_
