#ifndef STETHO_VIZ_CAMERA_H_
#define STETHO_VIZ_CAMERA_H_

#include "layout/sugiyama.h"

namespace stetho::viz {

/// ZVTM-style camera: a position in the virtual space plus an altitude.
/// Higher altitude = zoomed out. The projection scale is
/// focal / (focal + altitude), so altitude 0 renders 1:1 and the visible
/// world region grows linearly with altitude.
class Camera {
 public:
  Camera(double viewport_width, double viewport_height)
      : viewport_w_(viewport_width), viewport_h_(viewport_height) {}

  double x() const { return x_; }
  double y() const { return y_; }
  double altitude() const { return altitude_; }
  double viewport_width() const { return viewport_w_; }
  double viewport_height() const { return viewport_h_; }
  double focal() const { return focal_; }

  void MoveTo(double x, double y) {
    x_ = x;
    y_ = y;
  }
  /// Clamps to >= 0.
  void SetAltitude(double altitude) { altitude_ = altitude < 0 ? 0 : altitude; }

  /// Current world→screen scale factor.
  double Scale() const { return focal_ / (focal_ + altitude_); }

  /// Projects a world point to viewport coordinates (viewport center maps
  /// to the camera position).
  layout::Point Project(const layout::Point& world) const;

  /// Inverse projection.
  layout::Point Unproject(const layout::Point& screen) const;

  /// World-space rectangle currently visible: origin + size.
  layout::Point VisibleOrigin() const;
  layout::Point VisibleSize() const;

  /// Positions the camera so the given world rect fills the viewport
  /// (ZGrviewer's "get global view" / zoom-to-fit).
  void FitRect(double wx, double wy, double wwidth, double wheight);

  /// Centers on a world point keeping altitude (node focus on click).
  void CenterOn(double wx, double wy) { MoveTo(wx, wy); }

 private:
  double viewport_w_;
  double viewport_h_;
  double x_ = 0;
  double y_ = 0;
  double altitude_ = 0;
  double focal_ = 100.0;
};

}  // namespace stetho::viz

#endif  // STETHO_VIZ_CAMERA_H_
