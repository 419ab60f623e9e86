// Branch-and-bound Eq. 5 argmax: combined_argmax must return the peak of
// combined_surface bit-for-bit (EXPECT_EQ on the value, not a tolerance),
// because the hot path replaces the full surface everywhere selection
// happens. The property is pinned randomized across domains, subset sizes
// (down to the degenerate 2-probe sweep), duplicate slots and noisy
// readings, plus on a pathological table whose dB-domain responses vanish
// over whole grid regions (zero-norm points). The workspace tests pin the
// zero-allocation contract: growth_events() must go quiet once a session's
// subset shape has been seen.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "src/common/error.hpp"
#include "src/core/correlation.hpp"
#include "src/core/css.hpp"
#include "src/core/selector.hpp"
#include "tests/core/synthetic_table.hpp"

namespace talon {
namespace {

using testutil::ideal_probes;
using testutil::synthetic_grid;
using testutil::synthetic_table;

/// The reference: peak of the fully materialized surface, ties to the
/// lowest flat index (std::max_element keeps the first maximum).
CorrelationEngine::ArgmaxResult surface_argmax(const CorrelationEngine& engine,
                                               std::span<const SectorReading> probes) {
  const Grid2D w = engine.combined_surface(probes);
  const auto it = std::max_element(w.values().begin(), w.values().end());
  const std::size_t g = static_cast<std::size_t>(it - w.values().begin());
  return {g, *it, engine.response_matrix().directions()[g]};
}

void expect_matches_surface(const CorrelationEngine& engine,
                            std::span<const SectorReading> probes,
                            CorrelationWorkspace& ws) {
  const auto expected = surface_argmax(engine, probes);
  const auto fast = engine.combined_argmax(probes, ws);
  EXPECT_EQ(fast.index, expected.index);
  EXPECT_EQ(fast.value, expected.value);  // bit-identical, not approximate
  EXPECT_EQ(fast.direction.azimuth_deg, expected.direction.azimuth_deg);
  EXPECT_EQ(fast.direction.elevation_deg, expected.direction.elevation_deg);
  // A fresh workspace must agree with the reused one.
  CorrelationWorkspace fresh;
  const auto cold = engine.combined_argmax(probes, fresh);
  EXPECT_EQ(cold.index, fast.index);
  EXPECT_EQ(cold.value, fast.value);
}

TEST(CombinedArgmax, MatchesSurfacePeakOnIdealProbes) {
  const CorrelationEngine engine(synthetic_table(), synthetic_grid());
  CorrelationWorkspace ws;
  for (const Direction truth : {Direction{-20.0, 0.0}, Direction{12.0, 0.0},
                                Direction{0.0, 20.0}, Direction{-57.0, 5.0}}) {
    const auto probes =
        ideal_probes(synthetic_table(), {1, 2, 3, 4, 5, 6, 7, 8, 9}, truth);
    expect_matches_surface(engine, probes, ws);
  }
}

TEST(CombinedArgmax, RandomizedPropertyAcrossDomainsAndSubsets) {
  // The exactness claim is a property, not an example: random subsets
  // (with duplicates), random truth directions and per-reading noise, in
  // both correlation domains. Any pruning-bound bug that skips the true
  // peak, or any arithmetic drift in the surviving-point evaluation,
  // fails the EXPECT_EQ on the value.
  std::mt19937_64 rng(20260805);
  std::uniform_real_distribution<double> az(-60.0, 60.0);
  std::uniform_real_distribution<double> el(0.0, 30.0);
  std::uniform_real_distribution<double> noise(-2.0, 2.0);
  std::uniform_int_distribution<int> sector(1, 9);
  std::uniform_int_distribution<std::size_t> count(2, 9);
  for (const CorrelationDomain domain :
       {CorrelationDomain::kLinear, CorrelationDomain::kDb}) {
    const CorrelationEngine engine(synthetic_table(), synthetic_grid(), domain);
    CorrelationWorkspace ws;
    for (int trial = 0; trial < 120; ++trial) {
      std::vector<int> ids(count(rng));
      for (int& id : ids) id = sector(rng);  // duplicates allowed and common
      auto probes =
          ideal_probes(synthetic_table(), ids, {az(rng), el(rng)});
      for (SectorReading& r : probes) {
        r.snr_db += noise(rng);
        r.rssi_dbm += noise(rng);
      }
      expect_matches_surface(engine, probes, ws);
    }
  }
}

TEST(CombinedArgmax, DegenerateTwoProbeSweep) {
  // Two probes is the precondition floor; the surface is near-flat and
  // full of near-ties, the worst case for tie-ordering bugs.
  const CorrelationEngine engine(synthetic_table(), synthetic_grid());
  CorrelationWorkspace ws;
  for (const auto& ids : {std::vector<int>{1, 9}, std::vector<int>{4, 4},
                          std::vector<int>{8, 2}}) {
    const auto probes = ideal_probes(synthetic_table(), ids, {3.0, 10.0});
    expect_matches_surface(engine, probes, ws);
  }
}

/// A table whose dB-domain response is exactly 0.0 outside a narrow lobe:
/// in CorrelationDomain::kDb whole grid tiles then have zero probe norm
/// (w = 0 by definition there), exercising the argmax's zero-norm and
/// empty-tile handling.
PatternTable vanishing_table() {
  const AngularGrid grid = synthetic_grid();
  PatternTable table;
  for (int id = 1; id <= 3; ++id) {
    Grid2D pattern(grid);
    const double center = -40.0 + 15.0 * static_cast<double>(id);
    for (std::size_t ie = 0; ie < grid.elevation.count; ++ie) {
      for (std::size_t ia = 0; ia < grid.azimuth.count; ++ia) {
        const Direction d = grid.direction(ia, ie);
        const double sep = angular_separation_deg(d, {center, 0.0});
        pattern.set(ia, ie, sep < 12.0 ? 9.0 - 0.5 * sep : 0.0);
      }
    }
    table.add(id, pattern);
  }
  return table;
}

TEST(CombinedArgmax, ZeroNormRegionsScoreZeroAndPeakMatches) {
  const PatternTable table = vanishing_table();
  const CorrelationEngine engine(table, synthetic_grid(), CorrelationDomain::kDb);
  CorrelationWorkspace ws;
  std::mt19937_64 rng(7);
  // Keep the truth inside the lobes' union so the probe vector itself has
  // positive norm (an all-zero probe vector is a precondition violation,
  // covered below); the *grid* still has whole zero-norm tiles.
  std::uniform_real_distribution<double> az(-34.0, 14.0);
  for (int trial = 0; trial < 40; ++trial) {
    auto probes = ideal_probes(table, {1, 2, 3}, {az(rng), 0.0});
    probes[trial % 3].snr_db += 1.5;
    expect_matches_surface(engine, probes, ws);
  }
}

TEST(CombinedArgmax, ZeroProbeNormThrowsLikeSurface) {
  // Probes that hit only the vanished region are an all-zero probe vector
  // in the dB domain: both evaluators reject it the same way.
  const PatternTable table = vanishing_table();
  const CorrelationEngine engine(table, synthetic_grid(), CorrelationDomain::kDb);
  const std::vector<SectorReading> probes{
      SectorReading{.sector_id = 1, .snr_db = 0.0, .rssi_dbm = 0.0},
      SectorReading{.sector_id = 2, .snr_db = 0.0, .rssi_dbm = 0.0},
  };
  CorrelationWorkspace ws;
  EXPECT_THROW(engine.combined_surface(probes), PreconditionError);
  EXPECT_THROW(engine.combined_argmax(probes, ws), PreconditionError);
}

TEST(CombinedArgmax, PreconditionsMatchSurface) {
  const CorrelationEngine engine(synthetic_table(), synthetic_grid());
  CorrelationWorkspace ws;
  const auto one = ideal_probes(synthetic_table(), {1}, {0.0, 0.0});
  EXPECT_THROW(engine.combined_argmax(one, ws), PreconditionError);
  const std::vector<SectorReading> unknown{
      SectorReading{.sector_id = 50, .snr_db = 5.0, .rssi_dbm = 5.0},
      SectorReading{.sector_id = 51, .snr_db = 6.0, .rssi_dbm = 6.0},
  };
  EXPECT_THROW(engine.combined_argmax(unknown, ws), PreconditionError);
}

// --- workspace lifecycle: the zero-allocation contract --------------------

TEST(CorrelationWorkspace, SteadyStateStopsGrowing) {
  const CorrelationEngine engine(synthetic_table(), synthetic_grid());
  CorrelationWorkspace ws;
  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> noise(-1.0, 1.0);
  const std::vector<int> ids{1, 3, 5, 7, 8};
  auto make_probes = [&] {
    auto probes = ideal_probes(synthetic_table(), ids, {8.0, 5.0});
    for (SectorReading& r : probes) {
      r.snr_db += noise(rng);
      r.rssi_dbm += noise(rng);
    }
    return probes;
  };
  for (int warm = 0; warm < 3; ++warm) engine.combined_argmax(make_probes(), ws);
  const std::size_t settled = ws.growth_events();
  for (int i = 0; i < 200; ++i) engine.combined_argmax(make_probes(), ws);
  // Same subset shape, varying readings: no buffer may grow and no panel
  // may be re-resolved -- the steady state allocates nothing.
  EXPECT_EQ(ws.growth_events(), settled);
}

TEST(CorrelationWorkspace, SubsetSwitchChargesGrowthOnce) {
  const CorrelationEngine engine(synthetic_table(), synthetic_grid());
  CorrelationWorkspace ws;
  const auto a = ideal_probes(synthetic_table(), {1, 3, 5}, {0.0, 0.0});
  const auto b = ideal_probes(synthetic_table(), {2, 4, 6}, {0.0, 0.0});
  engine.combined_argmax(a, ws);
  engine.combined_argmax(a, ws);
  const std::size_t before = ws.growth_events();
  engine.combined_argmax(b, ws);  // new slot sequence: one panel re-resolve
  EXPECT_GT(ws.growth_events(), before);
  const std::size_t after_switch = ws.growth_events();
  engine.combined_argmax(b, ws);
  EXPECT_EQ(ws.growth_events(), after_switch);
}

TEST(CorrelationWorkspace, WalkStatsCountTheWalkAndSumByFieldList) {
  // The counters describe the walk without steering it: the same sweeps
  // give the same results and the same counts in any workspace, the
  // counts are consistent with each other, and two runs' counts add up
  // through the field list.
  const CorrelationEngine engine(synthetic_table(), synthetic_grid());
  const auto a = ideal_probes(synthetic_table(), {1, 3, 5, 7}, {-20.0, 5.0});
  const auto b = ideal_probes(synthetic_table(), {2, 4, 8, 9}, {25.0, 15.0});
  CorrelationWorkspace first;
  CorrelationWorkspace second;
  CorrelationWorkspace both;
  EXPECT_EQ(first.walk_stats(), WalkStats{});
  const auto peak_a = engine.combined_argmax(a, first);
  const auto peak_b = engine.combined_argmax(b, second, 10.0);
  EXPECT_EQ(engine.combined_argmax(a, both).index, peak_a.index);
  EXPECT_EQ(engine.combined_argmax(b, both, 10.0).rival, peak_b.rival);
  WalkStats sum = first.walk_stats();
  sum += second.walk_stats();
  EXPECT_EQ(both.walk_stats(), sum);
  for (const WalkStats& s : {first.walk_stats(), second.walk_stats()}) {
    EXPECT_GT(s.fine_evaluated, 0u);
    EXPECT_LE(s.fine_evaluated, s.fine_screened);
    EXPECT_LE(s.points_evaluated, s.fine_evaluated * SubsetPanel::kTilePoints);
  }
}

TEST(CssSelectorWorkspace, RepeatedSelectionAllocatesNothing) {
  // End-to-end through the selector: a CssSelector owns one workspace
  // and its select() hot path must go allocation-quiet on a fixed subset.
  const CompressiveSectorSelector css(synthetic_table(),
                                      CssConfig{.search_grid = synthetic_grid()});
  CssSelector selector(css);
  std::mt19937_64 rng(4242);
  std::uniform_real_distribution<double> noise(-1.5, 1.5);
  auto make_probes = [&] {
    auto probes = ideal_probes(synthetic_table(), {1, 2, 4, 6, 8}, {-5.0, 10.0});
    for (SectorReading& r : probes) r.snr_db += noise(rng);
    return probes;
  };
  for (int warm = 0; warm < 3; ++warm) selector.select(make_probes());
  const std::size_t settled = selector.workspace().growth_events();
  for (int i = 0; i < 100; ++i) {
    const CssResult result = selector.select(make_probes());
    EXPECT_TRUE(result.valid);
  }
  EXPECT_EQ(selector.workspace().growth_events(), settled);
}

}  // namespace
}  // namespace talon
