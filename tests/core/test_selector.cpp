// SectorSelector strategy seam: each implementation must behave exactly
// like the algorithm it wraps, so routing the experiment runners, benches
// and the daemon through the interface cannot change any result.
#include "src/core/selector.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/antenna/codebook.hpp"
#include "src/core/ssw.hpp"
#include "tests/core/synthetic_table.hpp"

namespace talon {
namespace {

using testutil::ideal_probes;
using testutil::synthetic_table;

CssConfig synthetic_config() {
  CssConfig config;
  config.search_grid = testutil::synthetic_grid();
  return config;
}

TEST(SswArgmaxSelector, MatchesSweepSelect) {
  SswArgmaxSelector selector;
  EXPECT_EQ(selector.name(), "ssw-argmax");
  const auto probes =
      ideal_probes(synthetic_table(), {1, 3, 5, 7}, {12.0, 0.0});
  const SswSelection expected = sweep_select(probes);
  const CssResult result = selector.select(probes);
  ASSERT_TRUE(expected.valid);
  EXPECT_TRUE(result.valid);
  EXPECT_EQ(result.sector_id, expected.sector_id);
  // The plain argmax carries no angle estimate.
  EXPECT_FALSE(result.estimated_direction.has_value());
  EXPECT_FALSE(selector.estimate_direction(probes).has_value());
}

TEST(SswArgmaxSelector, InvalidOnEmptySweep) {
  SswArgmaxSelector selector;
  const std::vector<SectorReading> none;
  EXPECT_FALSE(selector.select(none).valid);
}

TEST(CssSelector, MatchesWrappedSelectorExactly) {
  const CompressiveSectorSelector css(synthetic_table(), synthetic_config());
  CssSelector selector(css);
  EXPECT_EQ(selector.name(), "css");
  EXPECT_EQ(&selector.css(), &css);

  const auto probes = ideal_probes(synthetic_table(),
                                   {1, 2, 3, 4, 5, 6, 7}, {-20.0, 0.0});
  // Default candidates.
  CorrelationWorkspace ws;
  const CssResult direct = css.select(probes, ws);
  const CssResult routed = selector.select(probes);
  EXPECT_EQ(routed.valid, direct.valid);
  EXPECT_EQ(routed.sector_id, direct.sector_id);
  EXPECT_EQ(routed.correlation_peak, direct.correlation_peak);
  ASSERT_EQ(routed.estimated_direction.has_value(),
            direct.estimated_direction.has_value());
  if (direct.estimated_direction) {
    EXPECT_EQ(routed.estimated_direction->azimuth_deg,
              direct.estimated_direction->azimuth_deg);
  }

  // Restricted candidates.
  const std::vector<int> candidates{2, 4, 6};
  const CssResult restricted = selector.select(probes, candidates);
  const std::span<const SectorReading> sweep(probes);
  CssResult expected_restricted;
  css.select_batch({&sweep, 1}, candidates, {&expected_restricted, 1}, ws);
  EXPECT_EQ(restricted.sector_id, expected_restricted.sector_id);

  // Direction estimate pass-through.
  const auto est = selector.estimate_direction(probes);
  const auto expected = css.estimate_direction(probes, ws);
  ASSERT_EQ(est.has_value(), expected.has_value());
  if (expected) {
    EXPECT_EQ(est->azimuth_deg, expected->azimuth_deg);
    EXPECT_EQ(est->elevation_deg, expected->elevation_deg);
  }
}

TEST(TrackingCssSelector, FirstSelectionSeedsTheTracker) {
  const CompressiveSectorSelector css(synthetic_table(), synthetic_config());
  TrackingCssSelector selector(css);
  EXPECT_EQ(selector.name(), "css-tracking");
  EXPECT_FALSE(selector.tracked().has_value());

  const Direction truth{-20.0, 0.0};
  const auto probes =
      ideal_probes(synthetic_table(), {1, 2, 3, 4, 5, 6, 7}, truth);
  const CssResult result = selector.select(probes);
  ASSERT_TRUE(result.valid);
  ASSERT_TRUE(selector.tracked().has_value());
  // The first update locks onto the raw estimate, and the selection is
  // Eq. 4 re-run on that tracked direction.
  EXPECT_LE(azimuth_distance_deg(selector.tracked()->azimuth_deg,
                                 truth.azimuth_deg),
            6.0);
  std::vector<int> ids = css.patterns().ids();
  std::erase(ids, kRxQuasiOmniSectorId);
  EXPECT_EQ(result.sector_id,
            css.patterns().best_sector_at(*selector.tracked(), ids));
}

TEST(TrackingCssSelector, SmoothsSingleSweepJumps) {
  const CompressiveSectorSelector css(synthetic_table(), synthetic_config());
  TrackingCssSelector selector(css);

  const PatternTable table = synthetic_table();
  const std::vector<int> all{1, 2, 3, 4, 5, 6, 7, 8, 9};
  // Settle on a stable path...
  for (int i = 0; i < 6; ++i) {
    selector.select(ideal_probes(table, all, {-20.0, 0.0}));
  }
  const double settled = selector.tracked()->azimuth_deg;
  EXPECT_LE(azimuth_distance_deg(settled, -20.0), 6.0);
  // ...then one outlier sweep from the far side: the tracked direction
  // must not jump to it.
  selector.select(ideal_probes(table, all, {40.0, 0.0}));
  EXPECT_LE(azimuth_distance_deg(selector.tracked()->azimuth_deg, settled),
            15.0);
}

TEST(TrackingCssSelector, RestrictedCandidatesRespected) {
  const CompressiveSectorSelector css(synthetic_table(), synthetic_config());
  TrackingCssSelector selector(css);
  const auto probes = ideal_probes(synthetic_table(),
                                   {1, 2, 3, 4, 5, 6, 7}, {-20.0, 0.0});
  const std::vector<int> candidates{5, 6, 7};
  const CssResult result = selector.select(probes, candidates);
  ASSERT_TRUE(result.valid);
  EXPECT_TRUE(std::find(candidates.begin(), candidates.end(),
                        result.sector_id) != candidates.end());
}

}  // namespace
}  // namespace talon
