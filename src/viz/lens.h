#ifndef STETHO_VIZ_LENS_H_
#define STETHO_VIZ_LENS_H_

#include "layout/sugiyama.h"

namespace stetho::viz {

/// Fisheye distortion lens — one of ZGrviewer's "plethora of lenses" for
/// visual interaction with graph nodes (paper §3.1). Points inside the lens
/// radius are magnified around the focus; points outside are untouched; the
/// transition is continuous at the rim.
class FisheyeLens {
 public:
  FisheyeLens(double cx, double cy, double radius, double magnification)
      : cx_(cx), cy_(cy), radius_(radius), mag_(magnification) {}

  double cx() const { return cx_; }
  double cy() const { return cy_; }
  double radius() const { return radius_; }

  void MoveTo(double cx, double cy) {
    cx_ = cx;
    cy_ = cy;
  }

  /// Applies the distortion in screen space.
  layout::Point Apply(const layout::Point& p) const;

  /// True when the point lies inside the lens.
  bool Contains(const layout::Point& p) const;

  /// Effective magnification at distance `d` from the focus (mag_ at the
  /// center, 1.0 at and beyond the rim).
  double GainAt(double d) const;

 private:
  double cx_;
  double cy_;
  double radius_;
  double mag_;
};

}  // namespace stetho::viz

#endif  // STETHO_VIZ_LENS_H_
