#ifndef STETHO_VIZ_RASTER_H_
#define STETHO_VIZ_RASTER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "viz/renderer.h"

namespace stetho::viz {

/// A plain RGB framebuffer — the "screenshot" target for headless
/// rendering. Pixels outside the buffer are silently clipped on write.
class Raster {
 public:
  Raster(int width, int height, Color background = Color::White());

  int width() const { return width_; }
  int height() const { return height_; }

  Color At(int x, int y) const;
  void Set(int x, int y, Color color);

  /// Binary PPM (P6) encoding of the buffer.
  std::string ToPpm() const;
  /// Writes the PPM to a file.
  Status WritePpm(const std::string& path) const;

  /// Fraction of pixels differing from `other` (sizes must match; returns
  /// 1.0 on size mismatch). Used by golden-image style tests.
  double DiffRatio(const Raster& other) const;

 private:
  int width_;
  int height_;
  std::vector<Color> pixels_;
};

/// Rasterizes a rendered frame: shapes become filled rectangles with a
/// stroke border, edges become Bresenham lines, text glyphs a thin baseline
/// strip (no font rendering — geometry only). The buffer matches the
/// frame's viewport size.
Raster RasterizeFrame(const Frame& frame, Color background = Color::White());

}  // namespace stetho::viz

#endif  // STETHO_VIZ_RASTER_H_
