// Noncoherent matching pursuit: multi-path extraction from magnitude-only
// probes. The paper notes that full multi-path estimation really wants
// phase information (Sec. 2.1); these tests pin down exactly what the
// power-domain pursuit can and cannot do:
//  - on clean probe vectors it separates two paths up to ~12 dB apart,
//  - on live noisy sweeps it reliably extracts the dominant path,
//  - the azimuth mask suppresses the elevation-ambiguity twin.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/error.hpp"
#include "src/common/units.hpp"
#include "src/core/subset_policy.hpp"
#include "tests/core/synthetic_table.hpp"
#include "tests/sim/experiment_fixture.hpp"

namespace talon {
namespace {

using testutil::ExperimentWorld;

class MatchingPursuitTest : public ::testing::Test {
 protected:
  MatchingPursuitTest()
      : table_(ExperimentWorld::instance().table),
        engine_(table_, CssConfig{}.search_grid) {}

  /// Probe vector of a synthetic two-path channel: above-floor powers of
  /// both paths add, then the firmware floor/clamp re-applies.
  std::vector<SectorReading> two_path_probes(const Direction& p1, const Direction& p2,
                                             double gap_db) const {
    std::vector<SectorReading> probes;
    const double floor = db_to_linear(kSnrReportingFloorDb);
    for (int id : talon_tx_sector_ids()) {
      const double a = db_to_linear(table_.sample_db(id, p1));
      const double b =
          db_to_linear(table_.sample_db(id, p2)) * db_to_linear(-gap_db);
      const double mixed = std::max(a, floor) + std::max(b - floor, 0.0);
      const double rep = std::clamp(linear_to_db(mixed), kSnrReportingFloorDb, 12.0);
      probes.push_back(SectorReading{.sector_id = id, .snr_db = rep, .rssi_dbm = rep});
    }
    return probes;
  }

  const PatternTable& table_;
  CorrelationEngine engine_;
};

TEST_F(MatchingPursuitTest, SeparatesEqualPowerPaths) {
  const auto probes = two_path_probes({-10.0, 0.0}, {40.0, 0.0}, 0.0);
  const auto paths = engine_.matching_pursuit(probes, 2, 0.15, 15.0, true);
  ASSERT_EQ(paths.size(), 2u);
  // Both azimuths recovered (order by extraction, not by power here).
  std::vector<double> azs{paths[0].direction.azimuth_deg,
                          paths[1].direction.azimuth_deg};
  std::sort(azs.begin(), azs.end());
  EXPECT_NEAR(azs[0], -10.0, 2.0);
  EXPECT_NEAR(azs[1], 40.0, 2.0);
}

TEST_F(MatchingPursuitTest, SeparatesPathsUpTo9dBGap) {
  for (double gap : {3.0, 6.0, 9.0}) {
    const auto probes = two_path_probes({-10.0, 0.0}, {40.0, 0.0}, gap);
    const auto paths = engine_.matching_pursuit(probes, 2, 0.15, 15.0, true);
    ASSERT_EQ(paths.size(), 2u) << "gap " << gap;
    EXPECT_NEAR(paths[0].direction.azimuth_deg, -10.0, 2.0) << "gap " << gap;
    EXPECT_NEAR(paths[1].direction.azimuth_deg, 40.0, 3.0) << "gap " << gap;
    // The stronger path explains more of the probe power.
    EXPECT_GT(paths[0].explained_power, paths[1].explained_power);
  }
}

TEST_F(MatchingPursuitTest, ExplainedPowerSumsBelowOne) {
  const auto probes = two_path_probes({-10.0, 0.0}, {40.0, 0.0}, 3.0);
  const auto paths = engine_.matching_pursuit(probes, 2, 0.15, 15.0, true);
  double total = 0.0;
  for (const auto& p : paths) {
    EXPECT_GE(p.explained_power, 0.0);
    total += p.explained_power;
  }
  EXPECT_LE(total, 1.0 + 1e-9);
  EXPECT_GT(total, 0.8);  // two clean paths explain most of the power
}

TEST_F(MatchingPursuitTest, SinglePathYieldsOneStrongExtraction) {
  const auto probes = two_path_probes({20.0, 0.0}, {20.0, 0.0}, 0.0);
  const auto paths = engine_.matching_pursuit(probes, 3, 0.35, 15.0, true);
  ASSERT_GE(paths.size(), 1u);
  EXPECT_NEAR(paths[0].direction.azimuth_deg, 20.0, 2.0);
  EXPECT_GT(paths[0].explained_power, 0.85);
  // Whatever else is extracted is marginal.
  for (std::size_t i = 1; i < paths.size(); ++i) {
    EXPECT_LT(paths[i].explained_power, 0.1);
  }
}

TEST_F(MatchingPursuitTest, LiveSweepExtractsDominantPath) {
  Scenario conf = make_conference_scenario(42);
  conf.set_head(-20.0, 0.0);
  LinkSimulator link = conf.make_link(Rng(91));
  const SweepOutcome sweep =
      link.transmit_sweep(*conf.dut, *conf.peer, sweep_burst_schedule());
  const auto paths =
      engine_.matching_pursuit(sweep.measurement.readings, 2, 0.3, 15.0, true);
  ASSERT_GE(paths.size(), 1u);
  EXPECT_NEAR(paths[0].direction.azimuth_deg, 20.0, 4.0);
  EXPECT_GT(paths[0].explained_power, 0.6);
}

TEST_F(MatchingPursuitTest, AzimuthMaskSuppressesElevationTwin) {
  Scenario conf = make_conference_scenario(42);
  conf.set_head(0.0, 0.0);
  LinkSimulator link = conf.make_link(Rng(93));
  const SweepOutcome sweep =
      link.transmit_sweep(*conf.dut, *conf.peer, sweep_burst_schedule());
  const auto paths =
      engine_.matching_pursuit(sweep.measurement.readings, 3, 0.15, 15.0, true);
  // No two extracted paths share an azimuth.
  for (std::size_t i = 0; i < paths.size(); ++i) {
    for (std::size_t j = i + 1; j < paths.size(); ++j) {
      EXPECT_GE(azimuth_distance_deg(paths[i].direction.azimuth_deg,
                                     paths[j].direction.azimuth_deg),
                15.0);
    }
  }
}

TEST(MatchingPursuitWideSweep, OnePathPursuitMatchesFirstPathOfTwo) {
  // More probes than the one-path pursuit's stack row buffer holds (64),
  // so its winning row is refloored on the heap: the subtraction must
  // still read that row, and so explain exactly what the first round of a
  // two-path pursuit explains.
  const AngularGrid grid = testutil::synthetic_grid();
  PatternTable table;
  std::vector<int> ids;
  for (int i = 0; i < 72; ++i) {
    const int id = i + 1;
    const Direction peak{-52.5 + 3.0 * (i % 36), i < 36 ? 0.0 : 20.0};
    table.add(id, testutil::lobe_pattern(grid, {id, peak, 10.0, 15.0}));
    ids.push_back(id);
  }
  const CorrelationEngine engine(table, grid);
  const auto probes = testutil::ideal_probes(table, ids, {-13.0, 5.0});

  const auto one = engine.matching_pursuit(probes, 1);
  const auto two = engine.matching_pursuit(probes, 2);
  ASSERT_EQ(one.size(), 1u);
  ASSERT_GE(two.size(), 1u);
  EXPECT_EQ(one[0].direction.azimuth_deg, two[0].direction.azimuth_deg);
  EXPECT_EQ(one[0].direction.elevation_deg, two[0].direction.elevation_deg);
  EXPECT_EQ(one[0].score, two[0].score);
  EXPECT_EQ(one[0].explained_power, two[0].explained_power);
  EXPECT_GT(one[0].explained_power, 0.0);
}

TEST_F(MatchingPursuitTest, ValidatesArguments) {
  const auto probes = two_path_probes({0.0, 0.0}, {0.0, 0.0}, 0.0);
  EXPECT_THROW(engine_.matching_pursuit(probes, 0), PreconditionError);
  EXPECT_THROW(engine_.matching_pursuit(probes, 2, 0.0), PreconditionError);
  EXPECT_THROW(engine_.matching_pursuit(probes, 2, 0.5, 0.0), PreconditionError);
  // dB-domain engines cannot run the power-domain pursuit.
  const CorrelationEngine db_engine(table_, CssConfig{}.search_grid,
                                    CorrelationDomain::kDb);
  EXPECT_THROW(db_engine.matching_pursuit(probes), PreconditionError);
}

}  // namespace
}  // namespace talon
