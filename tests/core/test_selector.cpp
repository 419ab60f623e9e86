// CssSelector pairs a CompressiveSectorSelector with its own workspace; it
// must select exactly like the selector it wraps, so routing the replay
// runners, benches and the CLI through it cannot change any result.
#include "src/core/selector.hpp"

#include <gtest/gtest.h>

#include <vector>

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

TEST(CssSelector, MatchesWrappedSelectorExactly) {
  const CompressiveSectorSelector css(synthetic_table(), synthetic_config());
  CssSelector selector(css);
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
  const CssResult expected_restricted = css.select(probes, ws, candidates);
  EXPECT_EQ(restricted.sector_id, expected_restricted.sector_id);

  // A run of sweeps through the selector's one workspace -- a subset
  // switch and an under-probed fallback included -- equals selecting each
  // sweep in a fresh workspace.
  const std::vector<std::vector<SectorReading>> sweeps{
      probes, ideal_probes(synthetic_table(), {1, 2, 3, 4, 5, 6, 7}, {25.0, 0.0}),
      ideal_probes(synthetic_table(), {2, 4, 6, 8}, {-5.0, 10.0}),
      ideal_probes(synthetic_table(), {3, 6}, {25.0, 0.0})};
  for (std::size_t i = 0; i < sweeps.size(); ++i) {
    const CssResult run = selector.select(sweeps[i]);
    CorrelationWorkspace fresh;
    const CssResult single = css.select(sweeps[i], fresh);
    EXPECT_EQ(run.valid, single.valid) << "sweep " << i;
    EXPECT_EQ(run.sector_id, single.sector_id) << "sweep " << i;
    EXPECT_EQ(run.fallback_used, single.fallback_used) << "sweep " << i;
    EXPECT_EQ(run.correlation_peak, single.correlation_peak) << "sweep " << i;
  }
}

}  // namespace
}  // namespace talon
