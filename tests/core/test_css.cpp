#include "src/core/css.hpp"

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "src/antenna/codebook.hpp"
#include "src/common/error.hpp"
#include "tests/core/synthetic_table.hpp"

namespace talon {
namespace {

using testutil::ideal_probes;
using testutil::synthetic_grid;
using testutil::synthetic_table;

CssConfig synthetic_config() {
  CssConfig c;
  c.search_grid = synthetic_grid();
  return c;
}

TEST(Css, SelectsBestSectorWithIdealProbes) {
  const PatternTable table = synthetic_table();
  const CompressiveSectorSelector css(table, synthetic_config());
  // Truth at -35 deg: sector 2 peaks exactly there.
  const auto probes = ideal_probes(table, {1, 3, 5, 7, 9}, {-35.0, 0.0});
  CorrelationWorkspace ws;
  const CssResult r = css.select(probes, ws);
  EXPECT_TRUE(r.valid);
  EXPECT_FALSE(r.fallback_used);
  EXPECT_EQ(r.sector_id, 2);  // selected although sector 2 was never probed
  ASSERT_TRUE(r.estimated_direction.has_value());
  EXPECT_LE(angular_separation_deg(*r.estimated_direction, {-35.0, 0.0}), 6.0);
  EXPECT_GT(r.correlation_peak, 0.9);
}

TEST(Css, CandidateCountExceedsProbeCount) {
  // The compressive property (Sec. 2.2): N available >> M probed.
  const PatternTable table = synthetic_table();
  const CompressiveSectorSelector css(table, synthetic_config());
  const auto probes = ideal_probes(table, {1, 3, 5, 7, 9}, {24.0, 0.0});
  CorrelationWorkspace ws;
  const CssResult r = css.select(probes, ws);
  EXPECT_TRUE(r.valid);
  EXPECT_EQ(r.sector_id, 6);  // peak at +25, never probed
}

TEST(Css, ElevatedPathSelectsElevatedSector) {
  const PatternTable table = synthetic_table();
  const CompressiveSectorSelector css(table, synthetic_config());
  const auto probes = ideal_probes(table, {2, 4, 6, 8, 9}, {0.0, 20.0});
  CorrelationWorkspace ws;
  const CssResult r = css.select(probes, ws);
  EXPECT_TRUE(r.valid);
  EXPECT_EQ(r.sector_id, 8);
  EXPECT_GT(r.estimated_direction->elevation_deg, 10.0);
}

TEST(Css, RestrictedCandidatesRespected) {
  const PatternTable table = synthetic_table();
  const CompressiveSectorSelector css(table, synthetic_config());
  const auto probes = ideal_probes(table, {1, 3, 5, 7}, {-35.0, 0.0});
  const std::vector<int> candidates{5, 6, 7};
  CorrelationWorkspace ws;
  const CssResult r = css.select(probes, ws, candidates);
  EXPECT_TRUE(r.valid);
  EXPECT_TRUE(r.sector_id == 5 || r.sector_id == 6 || r.sector_id == 7);
}

TEST(Css, EmptyProbesInvalidResult) {
  const CompressiveSectorSelector css(synthetic_table(), synthetic_config());
  const std::vector<SectorReading> none;
  CorrelationWorkspace ws;
  const CssResult r = css.select(none, ws);
  EXPECT_FALSE(r.valid);
}

TEST(Css, FallbackArgmaxBelowMinProbes) {
  const PatternTable table = synthetic_table();
  CssConfig config = synthetic_config();
  config.min_probes = 4;
  const CompressiveSectorSelector css(table, config);
  const auto probes = ideal_probes(table, {3, 6}, {25.0, 0.0});
  CorrelationWorkspace ws;
  const CssResult r = css.select(probes, ws);
  EXPECT_TRUE(r.valid);
  EXPECT_TRUE(r.fallback_used);
  EXPECT_FALSE(r.estimated_direction.has_value());
  // Argmax over the two readings: sector 6 is far stronger toward +25.
  EXPECT_EQ(r.sector_id, 6);
}

TEST(Css, EstimateDirectionNulloptOnTooFewProbes) {
  const CompressiveSectorSelector css(synthetic_table(), synthetic_config());
  const auto probes = ideal_probes(synthetic_table(), {3, 6}, {25.0, 0.0});
  CorrelationWorkspace ws;
  EXPECT_FALSE(css.select(probes, ws).estimated_direction.has_value());
}

TEST(Css, RobustToSnrOutlierViaRssiProduct) {
  const PatternTable table = synthetic_table();
  const CompressiveSectorSelector css(table, synthetic_config());
  const Direction truth{-20.0, 0.0};
  auto probes = ideal_probes(table, {1, 2, 3, 4, 5, 6, 7}, truth);
  probes[6].snr_db = 12.0;  // bogus spike on sector 7 (peak at +40)
  CorrelationWorkspace ws;
  const CssResult r = css.select(probes, ws);
  ASSERT_TRUE(r.valid);
  // The well-constrained azimuth axis must survive the outlier.
  EXPECT_LE(azimuth_distance_deg(r.estimated_direction->azimuth_deg,
                                 truth.azimuth_deg),
            6.0);
}

TEST(Css, SnrOnlyModeIsMoreSensitiveToOutliers) {
  const PatternTable table = synthetic_table();
  const Direction truth{-20.0, 0.0};
  auto probes = ideal_probes(table, {1, 2, 3, 4, 5, 6, 7}, truth);
  // Severe coordinated outlier on two sectors' SNR only.
  probes[5].snr_db = 12.0;
  probes[6].snr_db = 12.0;

  CssConfig with_rssi = synthetic_config();
  CssConfig snr_only = synthetic_config();
  snr_only.use_rssi = false;
  CorrelationWorkspace ws;
  const CssResult r_product =
      CompressiveSectorSelector(table, with_rssi).select(probes, ws);
  const CssResult r_snr = CompressiveSectorSelector(table, snr_only).select(probes, ws);
  const double err_product =
      angular_separation_deg(*r_product.estimated_direction, truth);
  const double err_snr = angular_separation_deg(*r_snr.estimated_direction, truth);
  EXPECT_LE(err_product, err_snr + 1e-9);
}

TEST(Css, DefaultCandidatesExcludeRxSector) {
  // A table containing the RX quasi-omni pattern must never select it.
  PatternTable table = synthetic_table();
  Grid2D omni(synthetic_grid(), 11.9);  // strong everywhere
  table.add(kRxQuasiOmniSectorId, omni);
  const CompressiveSectorSelector css(table, synthetic_config());
  const auto probes = ideal_probes(table, {1, 3, 5, 7}, {10.0, 0.0});
  CorrelationWorkspace ws;
  const CssResult r = css.select(probes, ws);
  EXPECT_TRUE(r.valid);
  EXPECT_NE(r.sector_id, kRxQuasiOmniSectorId);
}

TEST(Css, ConfidenceRequiresTheRssiProduct) {
  // The SNR-only ablation keeps its full surface and has no confidence.
  CssConfig config = synthetic_config();
  config.use_rssi = false;
  config.compute_confidence = true;
  EXPECT_THROW(CompressiveSectorSelector(synthetic_table(), config),
               PreconditionError);
}

TEST(Css, MinProbesBelowTwoRejected) {
  CssConfig config = synthetic_config();
  config.min_probes = 1;
  EXPECT_THROW(CompressiveSectorSelector(synthetic_table(), config),
               PreconditionError);
}

TEST(SectorMapping, SelectEqualsInterpolatedEq4AtTheEstimate) {
  // select() maps the Eq. 3 estimate through the response matrix's
  // ranking. Its sector must be the one PatternTable::best_sector_at
  // interpolates at the estimated direction, for the default and for
  // caller-ordered candidate sets, on the Eq. 5 walk and the SNR-only
  // surface alike; tied_table() makes ties the rule.
  const PatternTable table = testutil::tied_table();
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> az(-60.0, 60.0);
  std::uniform_real_distribution<double> el(0.0, 30.0);
  std::uniform_real_distribution<double> noise(-1.0, 1.0);
  const std::vector<int> all = table.ids();
  const std::vector<int> reversed(all.rbegin(), all.rend());
  for (const bool use_rssi : {true, false}) {
    CssConfig config = synthetic_config();
    config.use_rssi = use_rssi;
    const CompressiveSectorSelector css(table, config);
    CorrelationWorkspace ws;
    for (int trial = 0; trial < 50; ++trial) {
      std::vector<SectorReading> probes =
          ideal_probes(table, {1, 2, 3, 4, 5, 6, 10, 62}, {az(rng), el(rng)});
      for (SectorReading& r : probes) {
        r.snr_db += noise(rng);
        r.rssi_dbm += noise(rng);
      }
      for (const std::span<const int> candidates :
           {std::span<const int>(), std::span<const int>(all),
            std::span<const int>(reversed)}) {
        const CssResult r = css.select(probes, ws, candidates);
        ASSERT_TRUE(r.estimated_direction.has_value());
        const std::span<const int> eq4_set =
            candidates.empty() ? std::span<const int>(css.assets()->tx_candidates())
                               : candidates;
        EXPECT_EQ(r.sector_id, table.best_sector_at(*r.estimated_direction, eq4_set))
            << "use_rssi " << use_rssi << ", trial " << trial;
      }
    }
  }
}

}  // namespace
}  // namespace talon
