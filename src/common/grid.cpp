#include "src/common/grid.hpp"

#include <algorithm>
#include <cmath>

#include "src/common/error.hpp"

namespace talon {

double Axis::fractional_index(double v) const {
  TALON_EXPECTS(count >= 1);
  if (count == 1) return 0.0;
  const double idx = (v - first) / step;
  return std::clamp(idx, 0.0, static_cast<double>(count - 1));
}

std::size_t Axis::nearest_index(double v) const {
  return static_cast<std::size_t>(std::lround(fractional_index(v)));
}

Axis make_axis(double first, double last, double step) {
  TALON_EXPECTS(step > 0.0);
  TALON_EXPECTS(last >= first);
  const auto count = static_cast<std::size_t>(std::floor((last - first) / step + 1e-9)) + 1;
  return Axis{.first = first, .step = step, .count = count};
}

Grid2D::Grid2D(AngularGrid grid, double fill)
    : grid_(grid), values_(grid.size(), fill) {
  TALON_EXPECTS(grid_.azimuth.count >= 1 && grid_.elevation.count >= 1);
}

double Grid2D::at(std::size_t ia, std::size_t ie) const {
  TALON_EXPECTS(ia < grid_.azimuth.count && ie < grid_.elevation.count);
  return values_[grid_.index(ia, ie)];
}

void Grid2D::set(std::size_t ia, std::size_t ie, double v) {
  TALON_EXPECTS(ia < grid_.azimuth.count && ie < grid_.elevation.count);
  values_[grid_.index(ia, ie)] = v;
}

double Grid2D::sample(const Direction& d) const {
  TALON_EXPECTS(!values_.empty());
  const double fa = grid_.azimuth.fractional_index(d.azimuth_deg);
  const double fe = grid_.elevation.fractional_index(d.elevation_deg);
  const auto a0 = static_cast<std::size_t>(std::floor(fa));
  const auto e0 = static_cast<std::size_t>(std::floor(fe));
  const std::size_t a1 = std::min(a0 + 1, grid_.azimuth.count - 1);
  const std::size_t e1 = std::min(e0 + 1, grid_.elevation.count - 1);
  const double wa = fa - static_cast<double>(a0);
  const double we = fe - static_cast<double>(e0);
  const double v00 = values_[grid_.index(a0, e0)];
  const double v10 = values_[grid_.index(a1, e0)];
  const double v01 = values_[grid_.index(a0, e1)];
  const double v11 = values_[grid_.index(a1, e1)];
  return (1.0 - we) * ((1.0 - wa) * v00 + wa * v10) +
         we * ((1.0 - wa) * v01 + wa * v11);
}

Grid2D::Peak Grid2D::peak() const {
  TALON_EXPECTS(!values_.empty());
  const auto it = std::max_element(values_.begin(), values_.end());
  const auto flat = static_cast<std::size_t>(it - values_.begin());
  const std::size_t ie = flat / grid_.azimuth.count;
  const std::size_t ia = flat % grid_.azimuth.count;
  return Peak{.value = *it, .direction = grid_.direction(ia, ie), .index = flat};
}

}  // namespace talon
