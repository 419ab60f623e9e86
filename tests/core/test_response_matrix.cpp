// ResponseMatrix: the grid-point-major data layer under every correlation
// pass. Pins down the SoA layout against the pattern table, the direction
// table's ordering, slot lookup, and the per-subset norm cache semantics
// (sequence-keyed, duplicate-preserving, bit-identical on hits).
#include "src/core/response_matrix.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <thread>

#include "src/common/error.hpp"
#include "src/common/units.hpp"
#include "tests/core/synthetic_table.hpp"

namespace talon {
namespace {

using testutil::synthetic_grid;
using testutil::synthetic_table;

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
      const std::span<const double> db_row = db.point(g);
      const std::span<const double> lin_row = lin.point(g);
      ASSERT_EQ(db_row.size(), db.slots());
      for (std::size_t s = 0; s < db.slots(); ++s) {
        const double expected =
            table.sample_db(db.sector_ids()[s], grid.direction(ia, ie));
        EXPECT_DOUBLE_EQ(db_row[s], expected);
        EXPECT_DOUBLE_EQ(lin_row[s], db_to_linear(expected));
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

TEST(ResponseMatrix, NormCacheHitReturnsSameVector) {
  const ResponseMatrix matrix(synthetic_table(), synthetic_grid(),
                              CorrelationDomain::kLinear);
  EXPECT_EQ(matrix.cached_subset_count(), 0u);
  const std::vector<int> subset{0, 2, 4};
  const auto first = matrix.norms_sq(subset);
  EXPECT_EQ(matrix.cached_subset_count(), 1u);
  const auto second = matrix.norms_sq(subset);
  // A hit returns the cached vector itself: bit-identical by construction.
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(matrix.cached_subset_count(), 1u);
}

TEST(ResponseMatrix, NormCacheKeyIsTheSequenceNotTheSet) {
  const ResponseMatrix matrix(synthetic_table(), synthetic_grid(),
                              CorrelationDomain::kLinear);
  const std::vector<int> forward{0, 2, 4};
  const std::vector<int> reversed{4, 2, 0};
  const auto a = matrix.norms_sq(forward);
  const auto b = matrix.norms_sq(reversed);
  // Distinct keys (a different reading order accumulates in a different
  // order), even though the mathematical sums agree.
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(matrix.cached_subset_count(), 2u);
  for (std::size_t g = 0; g < matrix.points(); ++g) {
    EXPECT_NEAR((*a)[g], (*b)[g], 1e-12);
  }
}

TEST(ResponseMatrix, DuplicateSlotsContributeOncePerOccurrence) {
  const ResponseMatrix matrix(synthetic_table(), synthetic_grid(),
                              CorrelationDomain::kLinear);
  const std::vector<int> once{3};
  const std::vector<int> twice{3, 3};
  const auto single = matrix.norms_sq(once);
  const auto doubled = matrix.norms_sq(twice);
  for (std::size_t g = 0; g < matrix.points(); ++g) {
    EXPECT_DOUBLE_EQ((*doubled)[g], 2.0 * (*single)[g]);
  }
}

TEST(ResponseMatrix, NormsMatchDirectSum) {
  const ResponseMatrix matrix(synthetic_table(), synthetic_grid(),
                              CorrelationDomain::kLinear);
  const std::vector<int> subset{1, 5, 7};
  const auto norms = matrix.norms_sq(subset);
  for (std::size_t g = 0; g < matrix.points(); ++g) {
    const std::span<const double> row = matrix.point(g);
    double expected = 0.0;
    for (int s : subset) expected += row[s] * row[s];
    EXPECT_DOUBLE_EQ((*norms)[g], expected);
  }
}

// --- subset panels: the compacted tile-blocked view -----------------------

TEST(ResponseMatrix, PanelValuesMatchPointRows) {
  const ResponseMatrix matrix(synthetic_table(), synthetic_grid(),
                              CorrelationDomain::kLinear);
  const std::vector<int> subset{1, 4, 4, 7};  // duplicate kept per occurrence
  const auto panel = matrix.panel(subset);
  const TileMap& tiles = matrix.tiles();
  ASSERT_EQ(panel->points, matrix.points());
  ASSERT_EQ(panel->m(), subset.size());
  constexpr std::size_t kTile = SubsetPanel::kTilePoints;
  ASSERT_EQ(panel->fine_tiles, (matrix.points() + kTile - 1) / kTile);
  ASSERT_EQ(panel->fine_tiles, tiles.fine_tiles);
  ASSERT_EQ(panel->coarse_tiles,
            (panel->fine_tiles + SubsetPanel::kFinePerCoarse - 1) /
                SubsetPanel::kFinePerCoarse);
  ASSERT_EQ(panel->coarse_tiles, tiles.coarse_tiles);
  // Every valid point sits in exactly one tile slot.
  ASSERT_EQ(tiles.point.size(), matrix.points());
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
    EXPECT_EQ(tiles.column[i], g % synthetic_grid().azimuth.count) << "slot " << i;
    EXPECT_LE(tiles.fine_min[t], g);
    EXPECT_LE(tiles.coarse_min[t / SubsetPanel::kFinePerCoarse], g);
    const std::span<const double> row = matrix.point(g);
    const double* block = panel->tile_values(t);
    for (std::size_t mm = 0; mm < subset.size(); ++mm) {
      EXPECT_EQ(block[mm * kTile + i % kTile],
                row[static_cast<std::size_t>(subset[mm])])
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
  // Only the last tile is ragged, and its padding slots are zero.
  for (std::size_t t = 0; t + 1 < tiles.fine_tiles; ++t) EXPECT_EQ(tiles.count(t), kTile);
  const std::size_t tail = panel->fine_tiles - 1;
  const double* tail_block = panel->tile_values(tail);
  for (std::size_t gi = tiles.count(tail); gi < kTile; ++gi) {
    for (std::size_t mm = 0; mm < subset.size(); ++mm) {
      EXPECT_EQ(tail_block[mm * kTile + gi], 0.0);
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
  // over the tile's positive-norm points, and fine_sqrt_min_norm the exact
  // sqrt of the minimum positive norm -- the argmax's pruning bound is only
  // rigorous if these dominate every point they summarize. The tile's
  // points are the ones the tile map assigns to it.
  const ResponseMatrix matrix(synthetic_table(), synthetic_grid(),
                              CorrelationDomain::kLinear);
  const std::vector<int> subset{0, 2, 5};
  const auto panel = matrix.panel(subset);
  const TileMap& tiles = matrix.tiles();
  constexpr std::size_t kTile = SubsetPanel::kTilePoints;
  const std::size_t m = subset.size();
  for (std::size_t t = 0; t < panel->fine_tiles; ++t) {
    std::vector<double> u(m, 0.0);
    double min_norm = std::numeric_limits<double>::infinity();
    for (std::size_t gi = 0; gi < tiles.count(t); ++gi) {
      const std::size_t g = tiles.point[t * kTile + gi];
      const double n = panel->norms_sq[g];
      if (n <= 0.0) continue;
      min_norm = std::min(min_norm, n);
      const double inv_norm = 1.0 / std::sqrt(n);
      for (std::size_t mm = 0; mm < m; ++mm) {
        const double x = matrix.point(g)[static_cast<std::size_t>(subset[mm])];
        u[mm] = std::max(u[mm], std::abs(x) * inv_norm);
      }
    }
    for (std::size_t mm = 0; mm < m; ++mm) {
      EXPECT_EQ(panel->fine_abs_norm_max[t * m + mm], u[mm]) << "tile " << t;
    }
    EXPECT_EQ(panel->fine_sqrt_min_norm[t], std::sqrt(min_norm)) << "tile " << t;
  }
  // Coarse aggregates dominate their fine tiles.
  for (std::size_t c = 0; c < panel->coarse_tiles; ++c) {
    for (std::size_t t = tiles.first_fine(c); t < tiles.last_fine(c); ++t) {
      for (std::size_t mm = 0; mm < m; ++mm) {
        EXPECT_GE(panel->coarse_abs_norm_max[c * m + mm],
                  panel->fine_abs_norm_max[t * m + mm]);
      }
      EXPECT_LE(panel->coarse_sqrt_min_norm[c], panel->fine_sqrt_min_norm[t]);
    }
  }
}

TEST(ResponseMatrix, NormsAliasTheCachedPanel) {
  const ResponseMatrix matrix(synthetic_table(), synthetic_grid(),
                              CorrelationDomain::kLinear);
  const std::vector<int> subset{1, 3, 5};
  const auto panel = matrix.panel(subset);
  const auto norms = matrix.norms_sq(subset);
  // One cache entry serves both views: norms_sq aliases the panel's array.
  EXPECT_EQ(norms.get(), &panel->norms_sq);
  EXPECT_EQ(matrix.cached_subset_count(), 1u);
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
  matrix.norms_sq(a);  // hit through the norms view
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

}  // namespace
}  // namespace talon
