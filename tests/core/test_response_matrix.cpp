// ResponseMatrix: the tile-major data layer under every correlation pass.
// Pins down the tile-block layout against the pattern table, the
// direction table's ordering, slot lookup, the per-subset panel
// statistics against a reference build, and the panel cache semantics
// (sequence-keyed, duplicate-preserving, bit-identical on hits).
#include "src/core/response_matrix.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <string>
#include <thread>

#include "src/common/cpufeatures.hpp"
#include "src/common/error.hpp"
#include "src/common/units.hpp"
#include "src/core/pattern_assets.hpp"
#include "tests/core/synthetic_table.hpp"

namespace talon {
namespace {

using testutil::synthetic_grid;
using testutil::synthetic_table;
using testutil::tied_table;

TEST(ResponseMatrix, LayoutMatchesPatternTableSamples) {
  const PatternTable table = synthetic_table();
  const AngularGrid grid = synthetic_grid();
  const ResponseMatrix db(table, grid, CorrelationDomain::kDb);
  const ResponseMatrix lin(table, grid, CorrelationDomain::kLinear);
  ASSERT_EQ(db.points(), grid.size());
  ASSERT_EQ(db.slots(), table.ids().size());
  for (std::size_t ie = 0; ie < grid.elevation.count; ++ie) {
    for (std::size_t ia = 0; ia < grid.azimuth.count; ++ia) {
      const std::size_t g = grid.index(ia, ie);
      for (std::size_t s = 0; s < db.slots(); ++s) {
        const double expected =
            table.sample_db(db.sector_ids()[s], grid.direction(ia, ie));
        EXPECT_DOUBLE_EQ(db.value(g, s), expected);
        EXPECT_DOUBLE_EQ(lin.value(g, s), db_to_linear(expected));
      }
    }
  }
}

TEST(ResponseMatrix, DirectionsFollowGridIndexOrder) {
  const AngularGrid grid = synthetic_grid();
  const ResponseMatrix matrix(synthetic_table(), grid, CorrelationDomain::kLinear);
  const std::vector<Direction>& dirs = matrix.directions();
  ASSERT_EQ(dirs.size(), grid.size());
  for (std::size_t ie = 0; ie < grid.elevation.count; ++ie) {
    for (std::size_t ia = 0; ia < grid.azimuth.count; ++ia) {
      const Direction expected = grid.direction(ia, ie);
      const Direction actual = dirs[grid.index(ia, ie)];
      EXPECT_DOUBLE_EQ(actual.azimuth_deg, expected.azimuth_deg);
      EXPECT_DOUBLE_EQ(actual.elevation_deg, expected.elevation_deg);
    }
  }
}

TEST(ResponseMatrix, SlotLookup) {
  const ResponseMatrix matrix(synthetic_table(), synthetic_grid(),
                              CorrelationDomain::kLinear);
  for (std::size_t s = 0; s < matrix.slots(); ++s) {
    EXPECT_EQ(matrix.slot(matrix.sector_ids()[s]), static_cast<int>(s));
  }
  EXPECT_EQ(matrix.slot(99), -1);
  EXPECT_EQ(matrix.slot(-1), -1);
}

TEST(ResponseMatrix, SlotLookupMatchesBinarySearch) {
  // The table lookup against a lower_bound over the sorted IDs, for every
  // ID a 6-bit field can carry, one past each end and the int extremes.
  for (const PatternTable& table : {synthetic_table(), tied_table()}) {
    const ResponseMatrix matrix(table, synthetic_grid(), CorrelationDomain::kDb);
    const std::vector<int>& ids = matrix.sector_ids();
    const auto reference = [&](int id) {
      const auto it = std::lower_bound(ids.begin(), ids.end(), id);
      return it != ids.end() && *it == id ? static_cast<int>(it - ids.begin()) : -1;
    };
    std::vector<int> probes{std::numeric_limits<int>::min(), std::numeric_limits<int>::max(),
                            std::numeric_limits<int>::min() + 1,
                            std::numeric_limits<int>::max() - 1};
    for (int id = -1; id <= 64; ++id) probes.push_back(id);
    for (const int id : probes) EXPECT_EQ(matrix.slot(id), reference(id)) << "id " << id;
  }
}

/// A grid off the tables' lattice that also reaches past their edges, so
/// Eq. 4 interpolates and clamps.
AngularGrid offset_grid() {
  return AngularGrid{make_axis(-64.0, 64.0, 1.7), make_axis(-3.0, 33.0, 2.5)};
}

/// Eq. 4 candidate sets over `table`: the default transmit set, every ID
/// in order and reversed, duplicates, each single ID and random subsets
/// in random order.
std::vector<std::vector<int>> candidate_sets(const PatternTable& table,
                                             const std::vector<int>& tx,
                                             std::mt19937_64& rng) {
  const std::vector<int> all = table.ids();
  std::vector<int> reversed(all.rbegin(), all.rend());
  std::vector<std::vector<int>> sets{tx, all, reversed};
  std::vector<int> twice = reversed;
  twice.insert(twice.end(), all.begin(), all.end());
  sets.push_back(twice);
  sets.push_back({all.back(), all.front(), all.back(), all[all.size() / 2], all.front()});
  for (const int id : all) sets.push_back({id});
  for (int i = 0; i < 24; ++i) {
    std::vector<int> subset = all;
    std::shuffle(subset.begin(), subset.end(), rng);
    subset.resize(std::uniform_int_distribution<std::size_t>(2, all.size())(rng));
    sets.push_back(subset);
  }
  return sets;
}

TEST(SectorMapping, GridIndexMatchesInterpolatedEq4) {
  // At every grid point, in both domains and on two grids, the ranking
  // returns exactly what PatternTable::best_sector_at interpolates at that
  // point's direction -- ties included, which tied_table() makes common
  // and which resolve to the first candidate in the caller's order.
  std::mt19937_64 rng(30);
  for (const PatternTable& table : {synthetic_table(), tied_table()}) {
    for (const AngularGrid& grid : {synthetic_grid(), offset_grid()}) {
      for (const CorrelationDomain domain :
           {CorrelationDomain::kLinear, CorrelationDomain::kDb}) {
        const PatternAssets assets(table, grid, domain);
        const ResponseMatrix& matrix = assets.engine().response_matrix();
        for (const std::vector<int>& candidates :
             candidate_sets(table, assets.tx_candidates(), rng)) {
          for (std::size_t g = 0; g < matrix.points(); ++g) {
            ASSERT_EQ(matrix.best_sector_at(g, candidates),
                      table.best_sector_at(matrix.directions()[g], candidates))
                << "point " << g << " of " << matrix.points() << ", "
                << candidates.size() << " candidates";
          }
        }
      }
    }
  }
}

TEST(SectorMapping, TiesFollowTheCandidateOrder) {
  // The tie rule is the caller's order, not the ID or slot order: at every
  // point of tied_table() three sectors share the best gain, so the
  // reversed ID list picks a different sector than the ascending one.
  const PatternTable table = tied_table();
  const ResponseMatrix matrix(table, synthetic_grid(), CorrelationDomain::kLinear);
  const std::vector<int> all = table.ids();
  const std::vector<int> reversed(all.rbegin(), all.rend());
  for (std::size_t g = 0; g < matrix.points(); ++g) {
    const int first = matrix.best_sector_at(g, all);
    const int last = matrix.best_sector_at(g, reversed);
    EXPECT_NE(first, last) << "point " << g;
    EXPECT_EQ(first, table.best_sector_at(matrix.directions()[g], all));
    EXPECT_EQ(last, table.best_sector_at(matrix.directions()[g], reversed));
  }
}

TEST(SectorMapping, UnknownOrEmptyCandidatesThrow) {
  // Like PatternTable::best_sector_at, an ID the table lacks throws
  // wherever it sits in the set, even behind the winner.
  const PatternTable table = synthetic_table();
  const ResponseMatrix matrix(table, synthetic_grid(), CorrelationDomain::kLinear);
  const Direction dir = matrix.directions()[0];
  for (const std::vector<int>& bad :
       std::vector<std::vector<int>>{{42},
                                     {4, 42},
                                     {42, 4},
                                     {1, 2, 3, 4, 5, 6, 7, 8, 9, 0},
                                     {-1},
                                     {64},
                                     {std::numeric_limits<int>::min()},
                                     {std::numeric_limits<int>::max()}}) {
    EXPECT_THROW(matrix.best_sector_at(0, bad), PreconditionError);
    EXPECT_THROW(table.best_sector_at(dir, bad), PreconditionError);
  }
  EXPECT_THROW(matrix.best_sector_at(0, std::vector<int>{}), PreconditionError);
  EXPECT_THROW(matrix.best_sector_at(matrix.points(), std::vector<int>{1}),
               PreconditionError);
}

/// The root subset norm of flat grid index g in `panel`, read from its
/// tile-major array through the tile map.
double root_norm(const ResponseMatrix& matrix, const SubsetPanel& panel, std::size_t g) {
  return panel.root_norms[matrix.tiles().tile_slot[g]];
}

/// sum_m value(g, slots[m])^2, accumulated in sequence order.
double direct_norm_sq(const ResponseMatrix& matrix, std::span<const int> slots,
                      std::size_t g) {
  double sum = 0.0;
  for (const int s : slots) {
    const double x = matrix.value(g, static_cast<std::size_t>(s));
    sum += x * x;
  }
  return sum;
}

TEST(ResponseMatrix, NormCacheHitReturnsSameVector) {
  const ResponseMatrix matrix(synthetic_table(), synthetic_grid(),
                              CorrelationDomain::kLinear);
  EXPECT_EQ(matrix.cached_subset_count(), 0u);
  const std::vector<int> subset{0, 2, 4};
  const auto first = matrix.panel(subset);
  EXPECT_EQ(matrix.cached_subset_count(), 1u);
  const auto second = matrix.panel(subset);
  // A hit returns the cached norms themselves: bit-identical by
  // construction.
  EXPECT_EQ(&first->root_norms, &second->root_norms);
  EXPECT_EQ(matrix.cached_subset_count(), 1u);
}

TEST(ResponseMatrix, NormCacheKeyIsTheSequenceNotTheSet) {
  const ResponseMatrix matrix(synthetic_table(), synthetic_grid(),
                              CorrelationDomain::kLinear);
  const std::vector<int> forward{0, 2, 4};
  const std::vector<int> reversed{4, 2, 0};
  const auto a = matrix.panel(forward);
  const auto b = matrix.panel(reversed);
  // Distinct keys (a different reading order accumulates in a different
  // order), even though the mathematical sums agree.
  EXPECT_NE(&a->root_norms, &b->root_norms);
  EXPECT_EQ(matrix.cached_subset_count(), 2u);
  for (std::size_t g = 0; g < matrix.points(); ++g) {
    EXPECT_EQ(root_norm(matrix, *a, g), std::sqrt(direct_norm_sq(matrix, forward, g)));
    EXPECT_EQ(root_norm(matrix, *b, g), std::sqrt(direct_norm_sq(matrix, reversed, g)));
    EXPECT_NEAR(root_norm(matrix, *a, g), root_norm(matrix, *b, g), 1e-12);
  }
}

TEST(ResponseMatrix, DuplicateSlotsContributeOncePerOccurrence) {
  const ResponseMatrix matrix(synthetic_table(), synthetic_grid(),
                              CorrelationDomain::kLinear);
  const std::vector<int> once{3};
  const std::vector<int> twice{3, 3};
  const auto single = matrix.panel(once);
  const auto doubled = matrix.panel(twice);
  for (std::size_t g = 0; g < matrix.points(); ++g) {
    const double x = matrix.value(g, 3);
    EXPECT_EQ(root_norm(matrix, *single, g), std::sqrt(x * x));
    EXPECT_EQ(root_norm(matrix, *doubled, g), std::sqrt(2.0 * (x * x)));
  }
}

TEST(ResponseMatrix, NormsMatchDirectSum) {
  const ResponseMatrix matrix(synthetic_table(), synthetic_grid(),
                              CorrelationDomain::kLinear);
  const std::vector<int> subset{1, 5, 7};
  const auto panel = matrix.panel(subset);
  for (std::size_t g = 0; g < matrix.points(); ++g) {
    EXPECT_EQ(root_norm(matrix, *panel, g), std::sqrt(direct_norm_sq(matrix, subset, g)));
  }
  // The padding of the ragged last tile holds 0.
  const TileMap& tiles = matrix.tiles();
  ASSERT_EQ(panel->root_norms.size(), tiles.fine_tiles * SubsetPanel::kTilePoints);
  for (std::size_t i = matrix.points(); i < panel->root_norms.size(); ++i) {
    EXPECT_EQ(panel->root_norms[i], 0.0);
  }
}

// --- subset panels: the compacted tile-blocked view -----------------------

TEST(ResponseMatrix, PanelValuesMatchPointRows) {
  // A panel holds no responses: sequence position m reads row slots[m] of
  // every tile block of the one shared matrix. Each block row holds its
  // slot's response at every point the tile map assigns to the tile.
  const PatternTable table = synthetic_table();
  const AngularGrid grid = synthetic_grid();
  const ResponseMatrix matrix(table, grid, CorrelationDomain::kLinear);
  const std::vector<int> subset{1, 4, 4, 7};  // duplicate kept per occurrence
  const auto panel = matrix.panel(subset);
  const TileMap& tiles = matrix.tiles();
  ASSERT_EQ(tiles.point.size(), matrix.points());
  ASSERT_EQ(panel->m(), subset.size());
  constexpr std::size_t kTile = SubsetPanel::kTilePoints;
  ASSERT_EQ(tiles.fine_tiles, (matrix.points() + kTile - 1) / kTile);
  ASSERT_EQ(tiles.coarse_tiles,
            (tiles.fine_tiles + SubsetPanel::kFinePerCoarse - 1) /
                SubsetPanel::kFinePerCoarse);
  ASSERT_EQ(panel->root_norms.size(), tiles.fine_tiles * kTile);
  ASSERT_EQ(panel->coarse_abs_norm_max.size(), tiles.coarse_tiles * panel->m());
  ASSERT_EQ(panel->rows.size(), subset.size());
  for (std::size_t mm = 0; mm < subset.size(); ++mm) {
    EXPECT_EQ(panel->rows[mm], static_cast<std::size_t>(subset[mm]) * kTile);
  }
  ASSERT_EQ(matrix.values().size(), tiles.fine_tiles * matrix.slots() * kTile);
  // Every valid point sits in exactly one tile slot, and tile_slot inverts
  // the map.
  ASSERT_EQ(tiles.point.size(), matrix.points());
  ASSERT_EQ(tiles.tile_slot.size(), matrix.points());
  std::vector<int> seen(matrix.points(), 0);
  for (const std::uint32_t g : tiles.point) {
    ASSERT_LT(g, matrix.points());
    ++seen[g];
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](int n) { return n == 1; }));
  // Each slot holds its point's responses, column and tile minimum.
  for (std::size_t i = 0; i < matrix.points(); ++i) {
    const std::size_t t = i / kTile;
    const std::size_t g = tiles.point[i];
    EXPECT_EQ(tiles.tile_slot[g], i);
    EXPECT_EQ(tiles.column[i], g % grid.azimuth.count) << "slot " << i;
    EXPECT_LE(tiles.fine_min[t], g);
    EXPECT_LE(tiles.coarse_min[t / SubsetPanel::kFinePerCoarse], g);
    const Direction d = grid.direction(g % grid.azimuth.count, g / grid.azimuth.count);
    for (std::size_t s = 0; s < matrix.slots(); ++s) {
      EXPECT_DOUBLE_EQ(matrix.tile_block(t)[s * kTile + i % kTile],
                       db_to_linear(table.sample_db(matrix.sector_ids()[s], d)))
          << "g=" << g << " s=" << s;
    }
    for (std::size_t mm = 0; mm < subset.size(); ++mm) {
      EXPECT_EQ(matrix.tile_block(t)[panel->rows[mm] + i % kTile],
                matrix.value(g, static_cast<std::size_t>(subset[mm])))
          << "g=" << g << " m=" << mm;
    }
  }
  // The minima are attained: each is some point of its tile.
  for (std::size_t t = 0; t < tiles.fine_tiles; ++t) {
    const auto first = tiles.point.begin() + static_cast<std::ptrdiff_t>(t * kTile);
    EXPECT_EQ(tiles.fine_min[t],
              *std::min_element(first, first + static_cast<std::ptrdiff_t>(tiles.count(t))));
  }
  for (std::size_t c = 0; c < tiles.coarse_tiles; ++c) {
    std::uint32_t lowest = std::numeric_limits<std::uint32_t>::max();
    for (std::size_t t = tiles.first_fine(c); t < tiles.last_fine(c); ++t) {
      lowest = std::min(lowest, tiles.fine_min[t]);
    }
    EXPECT_EQ(tiles.coarse_min[c], lowest);
  }
  // Only the last tile is ragged, and every row's padding slots are zero.
  for (std::size_t t = 0; t + 1 < tiles.fine_tiles; ++t) EXPECT_EQ(tiles.count(t), kTile);
  const std::size_t tail = tiles.fine_tiles - 1;
  for (std::size_t gi = tiles.count(tail); gi < kTile; ++gi) {
    for (std::size_t s = 0; s < matrix.slots(); ++s) {
      EXPECT_EQ(matrix.tile_block(tail)[s * kTile + gi], 0.0);
    }
  }
}

TEST(ResponseMatrix, TilesAreCompactAngularBlocks) {
  // On the 121 x 17 selection grid a fine tile spans a few azimuth
  // columns and about half the elevation rows -- not a 32-column strip --
  // and a coarse tile a few dozen columns.
  const AngularGrid grid{make_axis(-90.0, 90.0, 1.5), make_axis(0.0, 32.0, 2.0)};
  const ResponseMatrix matrix(synthetic_table(), grid, CorrelationDomain::kLinear);
  const TileMap& tiles = matrix.tiles();
  constexpr std::size_t kTile = SubsetPanel::kTilePoints;
  ASSERT_EQ(tiles.fine_tiles, (grid.size() + kTile - 1) / kTile);
  const auto span_of = [&](std::size_t i0, std::size_t i1) {
    std::size_t az_lo = grid.azimuth.count, az_hi = 0, el_lo = grid.elevation.count,
                el_hi = 0;
    for (std::size_t i = i0; i < i1; ++i) {
      const std::size_t ia = tiles.point[i] % grid.azimuth.count;
      const std::size_t ie = tiles.point[i] / grid.azimuth.count;
      az_lo = std::min(az_lo, ia);
      az_hi = std::max(az_hi, ia);
      el_lo = std::min(el_lo, ie);
      el_hi = std::max(el_hi, ie);
    }
    return std::pair{az_hi - az_lo + 1, el_hi - el_lo + 1};
  };
  for (std::size_t t = 0; t < tiles.fine_tiles; ++t) {
    const auto [az, el] = span_of(t * kTile, t * kTile + tiles.count(t));
    EXPECT_LE(az, 9u) << "tile " << t;  // a band-straddling tile spans two bands
    EXPECT_GE(el, 2u) << "tile " << t;
  }
  for (std::size_t c = 0; c < tiles.coarse_tiles; ++c) {
    const std::size_t i0 = tiles.first_fine(c) * kTile;
    const std::size_t i1 = std::min(tiles.last_fine(c) * kTile, grid.size());
    EXPECT_LE(span_of(i0, i1).first, 17u) << "coarse tile " << c;
  }
}

TEST(ResponseMatrix, PanelTileStatisticsBoundTheTile) {
  // fine_abs_norm_max must be the exact per-slot max of |x_m(g)|/||x(g)||
  // over the tile's positive-norm points -- the argmax's pruning bound is
  // only rigorous if these dominate every point they summarize. The
  // tile's points are the ones the tile map assigns to it.
  const ResponseMatrix matrix(synthetic_table(), synthetic_grid(),
                              CorrelationDomain::kLinear);
  const std::vector<int> subset{0, 2, 5};
  const auto panel = matrix.panel(subset);
  const TileMap& tiles = matrix.tiles();
  constexpr std::size_t kTile = SubsetPanel::kTilePoints;
  const std::size_t m = subset.size();
  for (std::size_t t = 0; t < tiles.fine_tiles; ++t) {
    std::vector<double> u(m, 0.0);
    for (std::size_t gi = 0; gi < tiles.count(t); ++gi) {
      const std::size_t g = tiles.point[t * kTile + gi];
      const double root = panel->root_norms[t * kTile + gi];
      if (root <= 0.0) continue;
      const double inv_norm = 1.0 / root;
      for (std::size_t mm = 0; mm < m; ++mm) {
        const double x = matrix.value(g, static_cast<std::size_t>(subset[mm]));
        u[mm] = std::max(u[mm], std::abs(x) * inv_norm);
      }
    }
    for (std::size_t mm = 0; mm < m; ++mm) {
      EXPECT_EQ(panel->fine_abs_norm_max[t * m + mm], u[mm]) << "tile " << t;
    }
  }
  // Coarse aggregates dominate their fine tiles.
  for (std::size_t c = 0; c < tiles.coarse_tiles; ++c) {
    for (std::size_t t = tiles.first_fine(c); t < tiles.last_fine(c); ++t) {
      for (std::size_t mm = 0; mm < m; ++mm) {
        EXPECT_GE(panel->coarse_abs_norm_max[c * m + mm],
                  panel->fine_abs_norm_max[t * m + mm]);
      }
    }
  }
}

/// A reference panel build from ResponseMatrix::value alone: per-point
/// norms accumulated over the sequence in order, their roots in tile
/// order, then the per-tile statistics exactly as SubsetPanel documents
/// them.
struct ReferencePanel {
  std::vector<double> root_norms;
  std::vector<double> u;
};

ReferencePanel reference_panel(const ResponseMatrix& matrix, std::span<const int> slots) {
  constexpr std::size_t kTile = SubsetPanel::kTilePoints;
  const TileMap& tiles = matrix.tiles();
  const std::size_t m = slots.size();
  ReferencePanel ref;
  ref.root_norms.assign(tiles.fine_tiles * kTile, 0.0);
  ref.u.assign(tiles.fine_tiles * m, 0.0);
  for (std::size_t t = 0; t < tiles.fine_tiles; ++t) {
    for (std::size_t gi = 0; gi < tiles.count(t); ++gi) {
      const std::size_t g = tiles.point[t * kTile + gi];
      double n = 0.0;
      for (const int s : slots) {
        const double x = matrix.value(g, static_cast<std::size_t>(s));
        n += x * x;
      }
      ref.root_norms[t * kTile + gi] = std::sqrt(n);
      if (n <= 0.0) continue;
      for (std::size_t mm = 0; mm < m; ++mm) {
        const double x = matrix.value(g, static_cast<std::size_t>(slots[mm]));
        ref.u[t * m + mm] = std::max(ref.u[t * m + mm], std::abs(x) * (1.0 / std::sqrt(n)));
      }
    }
  }
  return ref;
}

/// n_az x n_el points over azimuth [-60, 60] and elevation [0, 30], the
/// shapes TileEdgeExactness sweeps.
AngularGrid spread_grid(std::size_t n_az, std::size_t n_el) {
  const auto axis = [](double first, double width, std::size_t n) {
    const double step = n > 1 ? width / static_cast<double>(n - 1) : 1.0;
    return Axis{.first = first, .step = step, .count = n};
  };
  return AngularGrid{axis(-60.0, 120.0, n_az), axis(0.0, 30.0, n_el)};
}

TEST(ResponseMatrix, PanelStatisticsMatchAReferenceBuild) {
  // build_panel's one pass over contiguous tile rows must produce exactly
  // the statistics a plain per-point build from value(g, s) produces, on
  // grids whose tiles are full, ragged, one row or one column tall.
  const std::vector<AngularGrid> grids{
      AngularGrid{make_axis(-90.0, 90.0, 1.5), make_axis(0.0, 32.0, 2.0)},
      spread_grid(7, 3), spread_grid(1, 40), spread_grid(13, 9)};
  const std::vector<std::vector<int>> subsets{
      {0, 2, 4}, {8, 0, 5, 5, 3, 1}, {3, 3}, {7}, {8, 7, 6, 5, 4, 3, 2, 1, 0, 8}};
  // Under the scalar statistics kernel and whatever the host dispatches.
  for (const SimdLevel level : {SimdLevel::kScalar, detected_simd_level()}) {
    set_simd_level_override(level);
    for (const AngularGrid& grid : grids) {
      for (const CorrelationDomain domain :
           {CorrelationDomain::kLinear, CorrelationDomain::kDb}) {
        const ResponseMatrix matrix(synthetic_table(), grid, domain);
        for (const std::vector<int>& subset : subsets) {
          const std::string where =
              std::string(simd_level_name(level)) + " " +
              std::to_string(grid.azimuth.count) + "x" +
              std::to_string(grid.elevation.count) +
              " dB=" + std::to_string(domain == CorrelationDomain::kDb) +
              " M=" + std::to_string(subset.size());
          const auto panel = matrix.panel(subset);
          const ReferencePanel ref = reference_panel(matrix, subset);
          EXPECT_EQ(panel->root_norms, ref.root_norms) << where;
          EXPECT_EQ(panel->fine_abs_norm_max, ref.u) << where;
        }
      }
    }
  }
  clear_simd_level_override();
}

TEST(ResponseMatrix, ZeroResponseTilesMatchAcrossDispatch) {
  // In the dB domain a 0 dB response is an exact zero. Sectors flat at
  // 0 dB over the right half of the grid leave tiles with no positive
  // norm (every root and share 0) next to tiles with a few zero-norm
  // points; the scalar and the dispatched kernels must agree on every
  // statistic, coarse ones included, and both match the reference build.
  const AngularGrid grid = synthetic_grid();
  PatternTable table;
  for (int id = 1; id <= 3; ++id) {
    Grid2D pattern(grid, 0.0);
    for (std::size_t ie = 0; ie < grid.elevation.count; ++ie) {
      for (std::size_t ia = 0; ia < grid.azimuth.count / 2; ++ia) {
        if ((ia + ie) % 5 != 0) pattern.set(ia, ie, 2.0 * id - 5.0 + 0.25 * ia);
      }
    }
    table.add(id, pattern);
  }
  const std::vector<int> subset{2, 0, 2, 1};
  std::vector<std::shared_ptr<const SubsetPanel>> panels;
  for (const SimdLevel level : {SimdLevel::kScalar, detected_simd_level()}) {
    set_simd_level_override(level);
    const ResponseMatrix matrix(table, grid, CorrelationDomain::kDb);
    panels.push_back(matrix.panel(subset));
    const ReferencePanel ref = reference_panel(matrix, subset);
    EXPECT_EQ(panels.back()->fine_abs_norm_max, ref.u);
  }
  clear_simd_level_override();
  const SubsetPanel& scalar = *panels[0];
  const SubsetPanel& dispatched = *panels[1];
  // Some tile has no positive norm: its whole share row is 0.
  const std::size_t m = subset.size();
  bool zero_tile = false;
  for (std::size_t i = 0; i < scalar.fine_abs_norm_max.size(); i += m) {
    const auto row = scalar.fine_abs_norm_max.begin() + static_cast<std::ptrdiff_t>(i);
    zero_tile |= std::all_of(row, row + static_cast<std::ptrdiff_t>(m),
                             [](double u) { return u == 0.0; });
  }
  EXPECT_TRUE(zero_tile);
  EXPECT_EQ(scalar.root_norms, dispatched.root_norms);
  EXPECT_EQ(scalar.fine_abs_norm_max, dispatched.fine_abs_norm_max);
  EXPECT_EQ(scalar.coarse_abs_norm_max, dispatched.coarse_abs_norm_max);
}

TEST(ResponseMatrix, PanelHoldsNoValueCopy) {
  // At M = 14 on the 121 x 17 selection grid a panel is its root norms
  // (one double per tile slot) plus per-tile statistics: ~26 KB. A per-subset copy
  // of the responses alone would be 65 tiles x 32 points x 14 doubles.
  const AngularGrid grid{make_axis(-90.0, 90.0, 1.5), make_axis(0.0, 32.0, 2.0)};
  const ResponseMatrix matrix(synthetic_table(), grid, CorrelationDomain::kLinear);
  const std::vector<int> subset{0, 1, 2, 3, 4, 5, 6, 7, 8, 0, 1, 2, 3, 4};
  const auto panel = matrix.panel(subset);
  const auto bytes = [](const auto& v) {
    return v.capacity() * sizeof(typename std::decay_t<decltype(v)>::value_type);
  };
  const std::size_t total =
      sizeof(SubsetPanel) + bytes(panel->slots) + bytes(panel->rows) +
      bytes(panel->root_norms) + bytes(panel->fine_abs_norm_max) +
      bytes(panel->coarse_abs_norm_max);
  EXPECT_LE(total, 40u * 1024u);
}

TEST(PatternAssets, SharedBytesCountTheTileMajorMatrix) {
  // shared_bytes() is the padded tile-major matrix (fine_tiles * 32 *
  // slots doubles), the tile map's five index vectors, the table grids,
  // the direction table and the sector ranking (one byte per point and
  // slot) -- the containers as they are.
  const AngularGrid grid{make_axis(-90.0, 90.0, 1.5), make_axis(0.0, 32.0, 2.0)};
  const PatternTable table = synthetic_table();
  const PatternAssets assets(table, grid, CorrelationDomain::kLinear);
  const ResponseMatrix& matrix = assets.engine().response_matrix();
  const TileMap& tiles = matrix.tiles();
  ASSERT_EQ(matrix.values().size(),
            tiles.fine_tiles * SubsetPanel::kTilePoints * matrix.slots());
  EXPECT_GT(matrix.values().size(), matrix.points() * matrix.slots());  // padding
  const std::size_t expected =
      table.size() * table.grid().size() * sizeof(double) +
      tiles.fine_tiles * SubsetPanel::kTilePoints * matrix.slots() * sizeof(double) +
      (tiles.point.size() + tiles.column.size() + tiles.tile_slot.size() +
       tiles.fine_tiles + tiles.coarse_tiles) *
          sizeof(std::uint32_t) +
      matrix.directions().size() * sizeof(Direction) + matrix.points() * matrix.slots();
  EXPECT_EQ(assets.shared_bytes(), expected);
  EXPECT_EQ(tiles.fine_min.size(), tiles.fine_tiles);
  EXPECT_EQ(tiles.coarse_min.size(), tiles.coarse_tiles);
}

TEST(ResponseMatrix, CacheStatsCountHitsAndMisses) {
  const ResponseMatrix matrix(synthetic_table(), synthetic_grid(),
                              CorrelationDomain::kLinear);
  EXPECT_EQ(matrix.cache_stats().hits, 0u);
  EXPECT_EQ(matrix.cache_stats().misses, 0u);
  const std::vector<int> a{0, 1, 2};
  const std::vector<int> b{2, 1, 0};
  matrix.panel(a);  // miss
  matrix.panel(a);  // hit
  matrix.panel(b);  // miss (sequence-keyed)
  EXPECT_FALSE(matrix.panel(a)->root_norms.empty());  // hit
  const ResponseMatrix::CacheStats stats = matrix.cache_stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 2u);
}

TEST(ResponseMatrix, PanelSlotOutOfRangeThrows) {
  const ResponseMatrix matrix(synthetic_table(), synthetic_grid(),
                              CorrelationDomain::kLinear);
  EXPECT_THROW(matrix.panel(std::vector<int>{0, 99}), PreconditionError);
  EXPECT_THROW(matrix.panel(std::vector<int>{-1}), PreconditionError);
  EXPECT_THROW(matrix.panel(std::vector<int>{}), PreconditionError);
}

TEST(ResponseMatrixPanelCache, ConcurrentReadersShareOneBuild) {
  // K threads hammer the same subset plus a per-thread one: the shared
  // cache must serve every reader the same panel object without tearing
  // (TSan covers the lock discipline; this pins the sharing semantics).
  const ResponseMatrix matrix(synthetic_table(), synthetic_grid(),
                              CorrelationDomain::kLinear);
  const std::vector<int> shared_subset{1, 2, 3, 4};
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const SubsetPanel>> seen(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      const std::vector<int> own{i, (i + 1) % 9};
      for (int round = 0; round < 50; ++round) {
        seen[i] = matrix.panel(shared_subset);
        matrix.panel(own);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 1; i < kThreads; ++i) EXPECT_EQ(seen[i].get(), seen[0].get());
  const ResponseMatrix::CacheStats stats = matrix.cache_stats();
  // 8 distinct per-thread subsets + the shared one were built at least
  // once each; everything else hit.
  EXPECT_GE(stats.hits, 8u * 50u);
  EXPECT_EQ(matrix.cached_subset_count(), 9u);
}

TEST(ResponseMatrix, EmptyTableRejected) {
  PatternTable empty;
  EXPECT_THROW(
      ResponseMatrix(empty, synthetic_grid(), CorrelationDomain::kLinear),
      PreconditionError);
}

TEST(ResponseMatrix, TableBeyondTheDbEnvelopeRejected) {
  // 4000 dB is 10^400 in linear power: inf, and NaN in the surfaces, where
  // no exact comparison holds. A table built in code never went through
  // PatternTable::from_csv's check, so the matrix checks it too, in both
  // domains; the envelope's edge is admitted.
  const PatternTable base = synthetic_table();
  const auto with_cells = [&](double first, double second) {
    PatternTable table;
    for (const int id : base.ids()) {
      Grid2D pattern = base.pattern(id);
      if (id == 1) {
        pattern.set(0, 0, first);
        pattern.set(1, 0, second);
      }
      table.add(id, pattern);
    }
    return table;
  };
  for (const CorrelationDomain domain :
       {CorrelationDomain::kLinear, CorrelationDomain::kDb}) {
    EXPECT_THROW(ResponseMatrix(with_cells(4000.0, 0.0), synthetic_grid(), domain),
                 PreconditionError);
    EXPECT_THROW(ResponseMatrix(with_cells(0.0, -4000.0), synthetic_grid(), domain),
                 PreconditionError);
    EXPECT_NO_THROW(
        ResponseMatrix(with_cells(kDbEnvelope, -kDbEnvelope), synthetic_grid(), domain));
  }
}

}  // namespace
}  // namespace talon
