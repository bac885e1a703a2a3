#include "viz/raster.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace stetho::viz {

Raster::Raster(int width, int height, Color background)
    : width_(width < 1 ? 1 : width),
      height_(height < 1 ? 1 : height),
      pixels_(static_cast<size_t>(width_) * static_cast<size_t>(height_),
              background) {}

Color Raster::At(int x, int y) const {
  if (x < 0 || y < 0 || x >= width_ || y >= height_) return Color::Black();
  return pixels_[static_cast<size_t>(y) * static_cast<size_t>(width_) +
                 static_cast<size_t>(x)];
}

void Raster::Set(int x, int y, Color color) {
  if (x < 0 || y < 0 || x >= width_ || y >= height_) return;
  pixels_[static_cast<size_t>(y) * static_cast<size_t>(width_) +
          static_cast<size_t>(x)] = color;
}

std::string Raster::ToPpm() const {
  std::string out = "P6\n" + std::to_string(width_) + " " +
                    std::to_string(height_) + "\n255\n";
  out.reserve(out.size() + pixels_.size() * 3);
  for (const Color& c : pixels_) {
    out.push_back(static_cast<char>(c.r));
    out.push_back(static_cast<char>(c.g));
    out.push_back(static_cast<char>(c.b));
  }
  return out;
}

Status Raster::WritePpm(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot open '" + path + "'");
  std::string data = ToPpm();
  size_t written = std::fwrite(data.data(), 1, data.size(), f);
  std::fclose(f);
  if (written != data.size()) {
    return Status::IoError("short write to '" + path + "'");
  }
  return Status::OK();
}

double Raster::DiffRatio(const Raster& other) const {
  if (width_ != other.width_ || height_ != other.height_) return 1.0;
  size_t diff = 0;
  for (size_t i = 0; i < pixels_.size(); ++i) {
    if (!(pixels_[i] == other.pixels_[i])) ++diff;
  }
  return static_cast<double>(diff) / static_cast<double>(pixels_.size());
}

namespace {

void DrawLine(Raster* raster, double x1, double y1, double x2, double y2,
              Color color) {
  int ix1 = static_cast<int>(std::lround(x1));
  int iy1 = static_cast<int>(std::lround(y1));
  int ix2 = static_cast<int>(std::lround(x2));
  int iy2 = static_cast<int>(std::lround(y2));
  int dx = std::abs(ix2 - ix1);
  int dy = -std::abs(iy2 - iy1);
  int sx = ix1 < ix2 ? 1 : -1;
  int sy = iy1 < iy2 ? 1 : -1;
  int err = dx + dy;
  while (true) {
    raster->Set(ix1, iy1, color);
    if (ix1 == ix2 && iy1 == iy2) break;
    int e2 = 2 * err;
    if (e2 >= dy) {
      err += dy;
      ix1 += sx;
    }
    if (e2 <= dx) {
      err += dx;
      iy1 += sy;
    }
  }
}

void FillRect(Raster* raster, double cx, double cy, double w, double h,
              Color fill, Color stroke) {
  int x1 = static_cast<int>(std::lround(cx - w / 2));
  int y1 = static_cast<int>(std::lround(cy - h / 2));
  int x2 = static_cast<int>(std::lround(cx + w / 2));
  int y2 = static_cast<int>(std::lround(cy + h / 2));
  for (int y = y1; y <= y2; ++y) {
    for (int x = x1; x <= x2; ++x) {
      bool border = (x == x1 || x == x2 || y == y1 || y == y2);
      raster->Set(x, y, border ? stroke : fill);
    }
  }
}

void DrawCommandOn(Raster* raster, const DrawCommand& cmd) {
  switch (cmd.kind) {
    case GlyphKind::kEdge:
      DrawLine(raster, cmd.x, cmd.y, cmd.x2, cmd.y2, cmd.stroke);
      break;
    case GlyphKind::kShape:
      FillRect(raster, cmd.x, cmd.y, cmd.width, cmd.height, cmd.fill,
               cmd.stroke);
      break;
    case GlyphKind::kText: {
      // Geometry-only placeholder: a thin dark strip at the baseline.
      double strip_w = std::min(cmd.width * 0.7,
                                static_cast<double>(cmd.text.size()) * 4.0);
      if (strip_w >= 2 && cmd.height >= 6) {
        FillRect(raster, cmd.x, cmd.y, strip_w, 1.0, Color{80, 80, 80},
                 Color{80, 80, 80});
      }
      break;
    }
  }
}

}  // namespace

Raster RasterizeFrame(const Frame& frame, Color background) {
  Raster raster(static_cast<int>(frame.viewport_width),
                static_cast<int>(frame.viewport_height), background);
  for (const DrawCommand& cmd : frame.commands) {
    DrawCommandOn(&raster, cmd);
  }
  return raster;
}

}  // namespace stetho::viz
