#ifndef STETHO_VIZ_RENDERER_H_
#define STETHO_VIZ_RENDERER_H_

#include <string>
#include <vector>

#include "viz/camera.h"
#include "viz/lens.h"
#include "viz/virtual_space.h"

namespace stetho::viz {

/// One draw command of a rendered frame, in screen coordinates.
struct DrawCommand {
  GlyphKind kind;
  std::string owner;
  double x = 0, y = 0;        ///< center (shape/text) / first endpoint (edge)
  double x2 = 0, y2 = 0;      ///< second endpoint (edge)
  double width = 0, height = 0;
  std::string text;
  Color fill;
  Color stroke;
};

/// A headless frame: what would have been drawn, plus viewport metadata.
struct Frame {
  double viewport_width = 0;
  double viewport_height = 0;
  std::vector<DrawCommand> commands;
  /// Glyphs skipped because they fell outside the viewport (culling).
  size_t culled = 0;

  /// Serializes the frame as SVG for inspection / golden artifacts.
  std::string ToSvg() const;
};

/// Headless renderer: projects visible glyphs through the camera (and an
/// optional fisheye lens) into a draw-command list. This stands in for
/// ZVTM's Swing painting; everything the paper's display window shows is
/// observable in the Frame.
class Renderer {
 public:
  /// Renders a frame; `lens` may be null.
  static Frame RenderFrame(const VirtualSpace& space, const Camera& camera,
                           const FisheyeLens* lens = nullptr);
};

}  // namespace stetho::viz

#endif  // STETHO_VIZ_RENDERER_H_
