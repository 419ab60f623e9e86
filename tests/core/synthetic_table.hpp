// Shared helper: a small synthetic pattern table with Gaussian lobes at
// known directions, so correlation/CSS behaviour can be tested against an
// analytically known ground truth.
#pragma once

#include <cmath>
#include <vector>

#include "src/antenna/pattern.hpp"
#include "src/phy/measurement.hpp"

namespace talon::testutil {

struct Lobe {
  int sector_id;
  Direction peak;
  double peak_db;
  double width_deg;
};

inline AngularGrid synthetic_grid() {
  return AngularGrid{make_axis(-60.0, 60.0, 3.0), make_axis(0.0, 30.0, 5.0)};
}

/// One Gaussian lobe on the synthetic grid, floored at -7 dB.
inline Grid2D lobe_pattern(const AngularGrid& grid, const Lobe& lobe) {
  Grid2D out(grid);
  for (std::size_t ie = 0; ie < grid.elevation.count; ++ie) {
    for (std::size_t ia = 0; ia < grid.azimuth.count; ++ia) {
      const Direction d = grid.direction(ia, ie);
      const double sep = angular_separation_deg(d, lobe.peak);
      const double db =
          lobe.peak_db - 12.0 * (sep / lobe.width_deg) * (sep / lobe.width_deg);
      out.set(ia, ie, std::max(db, -7.0));
    }
  }
  return out;
}

/// Nine lobes spread over azimuth at two elevations.
inline PatternTable synthetic_table() {
  const AngularGrid grid = synthetic_grid();
  PatternTable table;
  const std::vector<Lobe> lobes{
      {1, {-50.0, 0.0}, 10.0, 20.0}, {2, {-35.0, 0.0}, 11.0, 18.0},
      {3, {-20.0, 0.0}, 10.5, 20.0}, {4, {-5.0, 0.0}, 11.5, 18.0},
      {5, {10.0, 0.0}, 10.0, 20.0},  {6, {25.0, 0.0}, 11.0, 18.0},
      {7, {40.0, 0.0}, 10.5, 20.0},  {8, {0.0, 20.0}, 9.5, 22.0},
      {9, {30.0, 20.0}, 9.0, 22.0},
  };
  for (const Lobe& l : lobes) table.add(l.sector_id, lobe_pattern(grid, l));
  return table;
}

/// A table where Eq. 4 ties: 18 sectors over the 6-bit ID range, with 0
/// as the quasi-omni receive sector, sharing six of synthetic_table()'s
/// lobes (IDs i and i + 6 of the list below have identical patterns),
/// rounded to the firmware's 0.25 dB steps.
inline PatternTable tied_table() {
  const PatternTable lobes = synthetic_table();
  const std::vector<int> ids{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 20, 31, 61, 62, 63};
  PatternTable table;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    Grid2D pattern = lobes.pattern(1 + static_cast<int>(i % 6));
    for (double& v : pattern.values()) v = std::round(v * 4.0) / 4.0;
    table.add(ids[i], pattern);
  }
  return table;
}

/// Ideal (noise-free) probe readings toward `truth` for the given sectors.
inline std::vector<SectorReading> ideal_probes(const PatternTable& table,
                                               const std::vector<int>& sectors,
                                               const Direction& truth) {
  std::vector<SectorReading> out;
  out.reserve(sectors.size());
  for (int id : sectors) {
    const double v = table.sample_db(id, truth);
    out.push_back(SectorReading{.sector_id = id, .snr_db = v, .rssi_dbm = v});
  }
  return out;
}

}  // namespace talon::testutil
