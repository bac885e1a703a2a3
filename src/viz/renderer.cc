#include "viz/renderer.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace stetho::viz {

namespace {

/// Projects one glyph into frame coordinates and appends the draw command,
/// or bumps the cull counter. Shared by the full and delta render paths so
/// a delta command is byte-identical to its full-frame counterpart.
void ProjectGlyph(const Glyph& g, const Camera& camera,
                  const FisheyeLens* lens, double scale, Frame* frame) {
  DrawCommand cmd;
  cmd.kind = g.kind;
  cmd.glyph = g.id;
  cmd.owner = g.owner;
  cmd.text = g.text;
  cmd.fill = g.fill;
  cmd.stroke = g.stroke;

  layout::Point p1 = camera.Project({g.x, g.y});
  layout::Point p2 = camera.Project({g.x2, g.y2});
  if (lens != nullptr) {
    p1 = lens->Apply(p1);
    p2 = lens->Apply(p2);
  }
  double gain = 1.0;
  if (lens != nullptr) {
    double dx = p1.x - lens->cx();
    double dy = p1.y - lens->cy();
    gain = lens->GainAt(std::sqrt(dx * dx + dy * dy));
  }
  cmd.x = p1.x;
  cmd.y = p1.y;
  cmd.x2 = p2.x;
  cmd.y2 = p2.y;
  cmd.width = g.width * scale * gain;
  cmd.height = g.height * scale * gain;

  // Viewport culling with the glyph's extent.
  double half_w = cmd.width / 2.0 + 1.0;
  double half_h = cmd.height / 2.0 + 1.0;
  double min_x = cmd.x - half_w;
  double max_x = cmd.x + half_w;
  double min_y = cmd.y - half_h;
  double max_y = cmd.y + half_h;
  if (g.kind == GlyphKind::kEdge) {
    min_x = std::min(cmd.x, cmd.x2) - 1.0;
    max_x = std::max(cmd.x, cmd.x2) + 1.0;
    min_y = std::min(cmd.y, cmd.y2) - 1.0;
    max_y = std::max(cmd.y, cmd.y2) + 1.0;
  }
  if (max_x < 0 || min_x > frame->viewport_width || max_y < 0 ||
      min_y > frame->viewport_height) {
    ++frame->culled;
    return;
  }
  frame->commands.push_back(std::move(cmd));
}

}  // namespace

Frame Renderer::RenderFrame(const VirtualSpace& space, const Camera& camera,
                            const FisheyeLens* lens) {
  Frame frame;
  frame.viewport_width = camera.viewport_width();
  frame.viewport_height = camera.viewport_height();
  double scale = camera.Scale();
  for (const Glyph& g : space.Snapshot(&frame.epoch)) {
    if (!g.visible) continue;
    ProjectGlyph(g, camera, lens, scale, &frame);
  }
  return frame;
}

Frame Renderer::RenderDelta(const VirtualSpace& space, const Camera& camera,
                            int64_t since, const FisheyeLens* lens) {
  Frame frame;
  frame.viewport_width = camera.viewport_width();
  frame.viewport_height = camera.viewport_height();
  double scale = camera.Scale();
  for (const Glyph& g : space.SnapshotSince(since, &frame.epoch)) {
    if (!g.visible) continue;
    ProjectGlyph(g, camera, lens, scale, &frame);
  }
  return frame;
}

Frame Renderer::RenderMinimap(const VirtualSpace& space,
                              const Camera& main_camera, double minimap_width,
                              double minimap_height) {
  Camera overview(minimap_width, minimap_height);
  const Box bounds = space.VisibleBounds();
  overview.FitRect(bounds.x, bounds.y, bounds.width, bounds.height);
  Frame frame = RenderFrame(space, overview);

  // Outline the main camera's visible world rect.
  layout::Point view_origin = main_camera.VisibleOrigin();
  layout::Point view_size = main_camera.VisibleSize();
  layout::Point top_left = overview.Project(view_origin);
  layout::Point bottom_right = overview.Project(
      {view_origin.x + view_size.x, view_origin.y + view_size.y});
  DrawCommand marker;
  marker.kind = GlyphKind::kShape;
  marker.owner = "viewport";
  marker.x = (top_left.x + bottom_right.x) / 2.0;
  marker.y = (top_left.y + bottom_right.y) / 2.0;
  marker.width = bottom_right.x - top_left.x;
  marker.height = bottom_right.y - top_left.y;
  marker.fill = Color::White();
  marker.stroke = Color::Red();
  frame.commands.push_back(std::move(marker));
  return frame;
}

std::string Frame::ToSvg() const {
  std::string out = StrFormat(
      "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%.0f\" "
      "height=\"%.0f\">\n",
      viewport_width, viewport_height);
  for (const DrawCommand& cmd : commands) {
    switch (cmd.kind) {
      case GlyphKind::kEdge:
        out += StrFormat(
            "  <line x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" y2=\"%.1f\" "
            "stroke=\"%s\"/>\n",
            cmd.x, cmd.y, cmd.x2, cmd.y2, cmd.stroke.ToHex().c_str());
        break;
      case GlyphKind::kShape:
        out += StrFormat(
            "  <rect x=\"%.1f\" y=\"%.1f\" width=\"%.1f\" height=\"%.1f\" "
            "fill=\"%s\" stroke=\"%s\" data-owner=\"%s\"/>\n",
            cmd.x - cmd.width / 2.0, cmd.y - cmd.height / 2.0, cmd.width,
            cmd.height, cmd.fill.ToHex().c_str(), cmd.stroke.ToHex().c_str(),
            EscapeXml(cmd.owner).c_str());
        break;
      case GlyphKind::kText:
        out += StrFormat(
            "  <text x=\"%.1f\" y=\"%.1f\" text-anchor=\"middle\" "
            "font-size=\"%.1f\">%s</text>\n",
            cmd.x, cmd.y, std::max(6.0, cmd.height * 0.4),
            EscapeXml(cmd.text).c_str());
        break;
    }
  }
  out += "</svg>\n";
  return out;
}

}  // namespace stetho::viz
