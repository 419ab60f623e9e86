// The branch-and-bound walk against the fully materialized surface on the
// inputs where a 2-D tile layout can go wrong: grids whose dimensions do
// not fit the tile shape (ragged bands, single rows and columns), tables
// full of exact ties (a tile visited early holds an equal-valued point
// with a higher flat index than the true first peak), and confidence mode
// with the peak at the azimuth seam or its rival on the exclusion-zone
// edge. Every index, value and rival must match bit for bit, at K = 1 and
// through the batch, whose same-subset members share a panel and each
// walk alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "src/common/angles.hpp"
#include "src/common/units.hpp"
#include "src/core/correlation.hpp"
#include "tests/core/synthetic_table.hpp"

namespace talon {
namespace {

using testutil::Lobe;
using testutil::lobe_pattern;

/// n_az x n_el points over azimuth [-60, 60] and elevation [0, 30].
AngularGrid spread_grid(std::size_t n_az, std::size_t n_el) {
  const auto axis = [](double first, double width, std::size_t n) {
    const double step = n > 1 ? width / static_cast<double>(n - 1) : 1.0;
    return Axis{.first = first, .step = step, .count = n};
  };
  return AngularGrid{axis(-60.0, 120.0, n_az), axis(0.0, 30.0, n_el)};
}

/// The grids the tests sweep: the 121 x 17 selection grid plus shapes
/// that leave ragged bands, a single row or a single column.
std::vector<AngularGrid> edge_grids() {
  return {AngularGrid{make_axis(-90.0, 90.0, 1.5), make_axis(0.0, 32.0, 2.0)},
          spread_grid(7, 3), spread_grid(1, 40), spread_grid(40, 1),
          spread_grid(13, 9)};
}

std::string describe(const AngularGrid& grid) {
  return std::to_string(grid.azimuth.count) + "x" +
         std::to_string(grid.elevation.count);
}

/// Twelve random Gaussian lobes over the grid's span.
PatternTable random_table(const AngularGrid& grid, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> az(grid.azimuth.first, grid.azimuth.last());
  std::uniform_real_distribution<double> el(grid.elevation.first,
                                            grid.elevation.last());
  std::uniform_real_distribution<double> peak(8.0, 12.0);
  std::uniform_real_distribution<double> width(12.0, 30.0);
  PatternTable table;
  for (int id = 1; id <= 12; ++id) {
    table.add(id, lobe_pattern(grid, Lobe{id, {az(rng), el(rng)}, peak(rng), width(rng)}));
  }
  return table;
}

/// Readings toward `truth`, plus a second path `weight` times as strong
/// toward `echo` when given (powers add in linear units).
std::vector<SectorReading> probes_toward(const PatternTable& table,
                                         const std::vector<int>& ids,
                                         const Direction& truth,
                                         std::optional<Direction> echo = {},
                                         double weight = 0.8) {
  std::vector<SectorReading> out;
  for (const int id : ids) {
    double lin = db_to_linear(table.sample_db(id, truth));
    if (echo) lin += weight * db_to_linear(table.sample_db(id, *echo));
    const double db = linear_to_db(lin);
    out.push_back(SectorReading{.sector_id = id, .snr_db = db, .rssi_dbm = db});
  }
  return out;
}

struct Reference {
  std::size_t index;
  double value;
  double rival;
  std::size_t ties;  // points whose W equals the peak's
};

/// Peak (first maximum), its tie count and, with an exclusion radius, the
/// best W at least that far in azimuth from the peak -- straight off the
/// materialized surface.
Reference surface_reference(const CorrelationEngine& engine,
                            std::span<const SectorReading> probes,
                            std::optional<double> exclusion) {
  const Grid2D w = engine.combined_surface(probes);
  const std::vector<double>& v = w.values();
  const auto it = std::max_element(v.begin(), v.end());
  Reference ref{static_cast<std::size_t>(it - v.begin()), *it, 0.0,
                static_cast<std::size_t>(std::count(v.begin(), v.end(), *it))};
  if (exclusion) {
    const AngularGrid& grid = w.grid();
    const double peak_az = grid.azimuth.value(ref.index % grid.azimuth.count);
    for (std::size_t ia = 0; ia < grid.azimuth.count; ++ia) {
      if (azimuth_distance_deg(grid.azimuth.value(ia), peak_az) < *exclusion) continue;
      for (std::size_t ie = 0; ie < grid.elevation.count; ++ie) {
        ref.rival = std::max(ref.rival, w.at(ia, ie));
      }
    }
  }
  return ref;
}

/// Checks one sweep at K = 1, with and without the rival.
void expect_walk_matches(const CorrelationEngine& engine,
                         std::span<const SectorReading> probes,
                         CorrelationWorkspace& ws, double exclusion,
                         const std::string& where) {
  const Reference ref = surface_reference(engine, probes, exclusion);
  const ArgmaxResult peak = engine.combined_argmax(probes, ws);
  EXPECT_EQ(peak.index, ref.index) << where;
  EXPECT_EQ(peak.value, ref.value) << where;
  const ArgmaxResult confident = engine.combined_argmax(probes, ws, exclusion);
  EXPECT_EQ(confident.index, ref.index) << where;
  EXPECT_EQ(confident.value, ref.value) << where;
  EXPECT_EQ(confident.rival, ref.rival) << where << " exclusion " << exclusion;
}

/// Checks a batch (shared subsets and singletons mixed) against the
/// surface, member by member, with and without the rival.
void expect_batch_matches(const CorrelationEngine& engine,
                          const std::vector<std::vector<SectorReading>>& sweeps,
                          CorrelationWorkspace& ws, double exclusion,
                          const std::string& where) {
  const std::vector<std::span<const SectorReading>> views(sweeps.begin(), sweeps.end());
  std::vector<ArgmaxResult> peaks(views.size());
  std::vector<ArgmaxResult> confident(views.size());
  engine.combined_argmax_batch(views, peaks, ws);
  engine.combined_argmax_batch(views, confident, ws, exclusion);
  for (std::size_t i = 0; i < views.size(); ++i) {
    const Reference ref = surface_reference(engine, views[i], exclusion);
    EXPECT_EQ(peaks[i].index, ref.index) << where << " member " << i;
    EXPECT_EQ(peaks[i].value, ref.value) << where << " member " << i;
    EXPECT_EQ(confident[i].index, ref.index) << where << " member " << i;
    EXPECT_EQ(confident[i].value, ref.value) << where << " member " << i;
    EXPECT_EQ(confident[i].rival, ref.rival) << where << " member " << i;
  }
}

TEST(TileEdgeExactness, WalkMatchesSurfaceOnGridsThatBreakTheBlockShape) {
  std::mt19937_64 rng(97531);
  std::uniform_real_distribution<double> noise(-1.5, 1.5);
  std::uniform_int_distribution<int> sector(1, 12);
  std::uniform_int_distribution<std::size_t> count(2, 10);
  for (const AngularGrid& grid : edge_grids()) {
    const PatternTable table = random_table(grid, rng);
    std::uniform_real_distribution<double> az(grid.azimuth.first, grid.azimuth.last());
    std::uniform_real_distribution<double> el(grid.elevation.first,
                                              grid.elevation.last());
    for (const CorrelationDomain domain :
         {CorrelationDomain::kLinear, CorrelationDomain::kDb}) {
      const CorrelationEngine engine(table, grid, domain);
      CorrelationWorkspace ws;
      const std::vector<int> shared{2, 5, 7, 9, 11};
      std::vector<std::vector<SectorReading>> batch;
      for (int trial = 0; trial < 12; ++trial) {
        std::vector<int> ids(count(rng));
        for (int& id : ids) id = sector(rng);  // duplicates allowed
        std::vector<SectorReading> probes =
            probes_toward(table, trial % 3 == 0 ? shared : ids, {az(rng), el(rng)});
        for (SectorReading& r : probes) {
          r.snr_db += noise(rng);
          r.rssi_dbm += noise(rng);
        }
        const std::string where = describe(grid) + " trial " + std::to_string(trial);
        expect_walk_matches(engine, probes, ws, 10.0, where);
        batch.push_back(std::move(probes));
      }
      CorrelationWorkspace batch_ws;
      expect_batch_matches(engine, batch, batch_ws, 10.0, describe(grid) + " batch");
    }
  }
}

TEST(TileEdgeExactness, TiesResolveToTheLowestFlatIndex) {
  // Every sector's pattern depends on |azimuth| only: W is constant down
  // each column and mirror-symmetric across azimuth 0, so the peak value
  // is shared by whole columns on both sides, spread over tiles whose
  // visiting order has nothing to do with flat order. A fully constant
  // table ties every point. The walk must still return the first peak.
  std::size_t tied_cases = 0;
  std::size_t cases = 0;
  std::mt19937_64 rng(8642);
  std::uniform_real_distribution<double> center(0.0, 50.0);
  std::uniform_real_distribution<double> width(10.0, 30.0);
  for (const AngularGrid& grid : edge_grids()) {
    PatternTable mirrored;
    PatternTable constant;
    for (int id = 1; id <= 8; ++id) {
      const double c = center(rng);
      const double wd = width(rng);
      Grid2D pattern(grid);
      Grid2D flat(grid, 2.0 + 0.5 * id);
      for (std::size_t ie = 0; ie < grid.elevation.count; ++ie) {
        for (std::size_t ia = 0; ia < grid.azimuth.count; ++ia) {
          const double off = (std::abs(grid.azimuth.value(ia)) - c) / wd;
          pattern.set(ia, ie, std::max(10.0 - 12.0 * off * off, -7.0));
        }
      }
      mirrored.add(id, pattern);
      constant.add(id, flat);
    }
    for (const PatternTable* table : {&mirrored, &constant}) {
      const CorrelationEngine engine(*table, grid);
      CorrelationWorkspace ws;
      std::vector<std::vector<SectorReading>> batch;
      for (std::size_t k = 0; k < grid.azimuth.count; k += 3) {
        const Direction truth = grid.direction(k, 0);
        const std::vector<SectorReading> probes =
            testutil::ideal_probes(*table, {1, 3, 4, 6, 8}, truth);
        const Reference ref = surface_reference(engine, probes, 10.0);
        ++cases;
        if (ref.ties > 1) ++tied_cases;
        expect_walk_matches(engine, probes, ws, 10.0,
                            describe(grid) + " column " + std::to_string(k));
        batch.push_back(probes);
      }
      CorrelationWorkspace batch_ws;
      expect_batch_matches(engine, batch, batch_ws, 10.0, describe(grid) + " tie batch");
    }
  }
  // The table really is tie-heavy: most cases share their peak value.
  EXPECT_GT(tied_cases * 2, cases);
}

TEST(TileEdgeExactness, RivalAtTheAzimuthSeam) {
  // Full-circle grids: the exclusion zone of a peak on the first or last
  // column wraps over the seam. 24 x 5 at 15 deg wraps too far for the
  // speculative rival pruning; 121 x 17 over [-90, 90] leaves it on with
  // the peak on an edge column. 720 x 5 at 0.5 deg is wider than the
  // walk's stack column maxima, so they live in the workspace.
  for (const AngularGrid& grid :
       {AngularGrid{make_axis(-180.0, 165.0, 15.0), make_axis(0.0, 20.0, 5.0)},
        AngularGrid{make_axis(-180.0, 178.5, 1.5), make_axis(0.0, 32.0, 4.0)},
        AngularGrid{make_axis(-180.0, 179.5, 0.5), make_axis(0.0, 16.0, 4.0)},
        AngularGrid{make_axis(-90.0, 90.0, 1.5), make_axis(0.0, 32.0, 2.0)}}) {
    PatternTable table;
    const std::size_t n_az = grid.azimuth.count;
    for (int id = 1; id <= 12; ++id) {
      // Lobes evenly round the axis, one on each edge column.
      const double az = grid.azimuth.value((static_cast<std::size_t>(id - 1) * (n_az - 1)) / 11);
      table.add(id, lobe_pattern(grid, Lobe{id, {az, 8.0}, 10.0, 25.0}));
    }
    const CorrelationEngine engine(table, grid);
    CorrelationWorkspace ws;
    std::vector<std::vector<SectorReading>> batch;
    for (const std::size_t column : {std::size_t{0}, std::size_t{1}, n_az - 2, n_az - 1}) {
      for (const double exclusion : {10.0, 15.0, 30.0, 45.0}) {
        const Direction truth = grid.direction(column, 2);
        const Direction echo{wrap_azimuth_deg(truth.azimuth_deg + 180.0 - exclusion),
                             4.0};
        const std::vector<SectorReading> probes =
            probes_toward(table, {1, 2, 3, 4, 6, 9, 11, 12}, truth, echo, 0.6);
        expect_walk_matches(engine, probes, ws, exclusion,
                            describe(grid) + " column " + std::to_string(column));
        batch.push_back(probes);
      }
    }
    CorrelationWorkspace batch_ws;
    expect_batch_matches(engine, batch, batch_ws, 15.0, describe(grid) + " seam batch");
  }
}

TEST(TileEdgeExactness, RivalOnTheExclusionZoneEdge) {
  // A second path exactly one exclusion radius (a whole number of grid
  // steps) from the first: the rival's column sits on the zone boundary,
  // which the running rival counts as inside and the final one as
  // outside. The walk must fall back to exact rather than miss it.
  const AngularGrid grid{make_axis(-90.0, 90.0, 1.5), make_axis(0.0, 32.0, 2.0)};
  std::mt19937_64 rng(2468);
  const PatternTable table = random_table(grid, rng);
  std::uniform_real_distribution<double> az(-60.0, 60.0);
  std::uniform_real_distribution<double> weight(0.5, 1.0);
  const CorrelationEngine engine(table, grid);
  CorrelationWorkspace ws;
  std::vector<std::vector<SectorReading>> batch;
  for (int trial = 0; trial < 24; ++trial) {
    const double exclusion = 1.5 * static_cast<double>(4 + trial % 8);  // 6 .. 16.5
    const Direction truth = grid.direction(grid.azimuth.nearest_index(az(rng)), 4);
    const double sign = trial % 2 == 0 ? 1.0 : -1.0;
    const Direction echo{truth.azimuth_deg + sign * exclusion, 4.0 + 2.0 * (trial % 3)};
    const std::vector<SectorReading> probes = probes_toward(
        table, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, truth, echo, weight(rng));
    expect_walk_matches(engine, probes, ws, exclusion,
                        "trial " + std::to_string(trial));
    batch.push_back(probes);
  }
  CorrelationWorkspace batch_ws;
  expect_batch_matches(engine, batch, batch_ws, 9.0, "edge batch");
}

}  // namespace
}  // namespace talon
