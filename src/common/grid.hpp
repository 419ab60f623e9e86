// Regular azimuth x elevation grids.
//
// Pattern tables (Sec. 4) and the correlation search of Eq. 3 both operate
// on a regular angular grid. AngularGrid describes the axes; Grid2D stores
// one value per grid point and supports bilinear interpolation with clamped
// extrapolation, matching how the paper interpolates over measurement gaps.
#pragma once

#include <cstddef>
#include <vector>

#include "src/common/angles.hpp"

namespace talon {

/// One regularly spaced axis: first + i * step for i in [0, count).
struct Axis {
  double first{0.0};
  double step{1.0};
  std::size_t count{1};

  double last() const { return first + step * static_cast<double>(count - 1); }
  double value(std::size_t i) const { return first + step * static_cast<double>(i); }

  /// Continuous (fractional) index of `v`, clamped to [0, count-1].
  double fractional_index(double v) const;

  /// Nearest integer index of `v`, clamped.
  std::size_t nearest_index(double v) const;

  friend bool operator==(const Axis&, const Axis&) = default;
};

/// Create an axis spanning [first, last] (inclusive, last is adjusted onto
/// the step lattice) with the given positive step.
Axis make_axis(double first, double last, double step);

/// Azimuth x elevation grid.
struct AngularGrid {
  Axis azimuth;
  Axis elevation;

  std::size_t size() const { return azimuth.count * elevation.count; }
  std::size_t index(std::size_t ia, std::size_t ie) const {
    return ie * azimuth.count + ia;
  }
  Direction direction(std::size_t ia, std::size_t ie) const {
    return {azimuth.value(ia), elevation.value(ie)};
  }

  friend bool operator==(const AngularGrid&, const AngularGrid&) = default;
};

/// Scalar field sampled on an AngularGrid.
class Grid2D {
 public:
  Grid2D() = default;
  /// All cells initialised to `fill`.
  Grid2D(AngularGrid grid, double fill = 0.0);

  const AngularGrid& grid() const { return grid_; }

  double at(std::size_t ia, std::size_t ie) const;
  void set(std::size_t ia, std::size_t ie, double v);

  /// Bilinear interpolation at an arbitrary direction; directions outside
  /// the grid clamp to the border (constant extrapolation).
  double sample(const Direction& d) const;

  /// Largest value and where it occurs (first occurrence on ties).
  struct Peak {
    double value;
    Direction direction;
    /// Flat index of `direction` (AngularGrid::index order).
    std::size_t index;
  };
  Peak peak() const;

  /// Raw storage, row-major with azimuth fastest (see AngularGrid::index).
  const std::vector<double>& values() const { return values_; }
  std::vector<double>& values() { return values_; }

 private:
  AngularGrid grid_{};
  std::vector<double> values_;
};

}  // namespace talon
