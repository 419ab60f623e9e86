#include "src/driver/css_daemon.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/common/error.hpp"
#include "src/core/metrics.hpp"
#include "src/sim/scenario.hpp"
#include "tests/driver/serve_testutil.hpp"
#include "tests/sim/experiment_fixture.hpp"

namespace talon {
namespace {

using testutil::ExperimentWorld;

class CssDaemonTest : public ::testing::Test {
 protected:
  CssDaemonTest()
      : lab_(make_lab_scenario(42)),
        link_(lab_.make_link(Rng(51))),
        driver_(lab_.peer->firmware()) {
    lab_.set_head(25.0, 0.0);
  }

  Scenario lab_;
  LinkSimulator link_;
  Wil6210Driver driver_;
};

TEST_F(CssDaemonTest, LoadsPatchesOnConstruction) {
  EXPECT_FALSE(driver_.research_patches_loaded());
  LinkSession session(driver_, ExperimentWorld::instance().assets(), CssDaemonConfig{},
                      Rng(1));
  EXPECT_TRUE(driver_.research_patches_loaded());
  EXPECT_EQ(session.current_probes(), 14u);
}

TEST_F(CssDaemonTest, SubsetsAreValidAndVary) {
  LinkSession session(driver_, ExperimentWorld::instance().assets(), CssDaemonConfig{},
                      Rng(2));
  const auto a = session.next_probe_subset();
  const auto b = session.next_probe_subset();
  EXPECT_EQ(a.size(), 14u);
  EXPECT_NE(a, b);
  for (int id : a) {
    EXPECT_TRUE(std::find(talon_tx_sector_ids().begin(), talon_tx_sector_ids().end(),
                          id) != talon_tx_sector_ids().end());
  }
}

TEST_F(CssDaemonTest, ProcessSweepSelectsAndForcesSector) {
  LinkSession session(driver_, ExperimentWorld::instance().assets(), CssDaemonConfig{},
                      Rng(3));
  const auto subset = session.next_probe_subset();
  link_.transmit_sweep(*lab_.dut, *lab_.peer, probing_burst_schedule(subset));
  const auto result = session.process_sweep();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->valid);
  EXPECT_TRUE(driver_.sector_forced());
  EXPECT_EQ(lab_.peer->firmware().sector_override(), result->sector_id);
  EXPECT_EQ(session.rounds(), 1u);

  // The forced sector is near-optimal toward the DUT.
  double best = -1e9;
  for (int id : talon_tx_sector_ids()) {
    best = std::max(best, link_.true_snr_db(*lab_.dut, id, *lab_.peer,
                                            kRxQuasiOmniSectorId));
  }
  EXPECT_GE(link_.true_snr_db(*lab_.dut, result->sector_id, *lab_.peer,
                              kRxQuasiOmniSectorId),
            best - 3.0);
}

TEST_F(CssDaemonTest, EmptySweepKeepsPreviousOverride) {
  LinkSession session(driver_, ExperimentWorld::instance().assets(), CssDaemonConfig{},
                      Rng(4));
  // No sweep happened: the ring buffer is empty.
  const auto result = session.process_sweep();
  EXPECT_FALSE(result.has_value());
  EXPECT_FALSE(driver_.sector_forced());
}

TEST_F(CssDaemonTest, AdaptiveModeAdjustsProbeCount) {
  CssDaemonConfig config;
  config.adaptive = true;
  LinkSession session(driver_, ExperimentWorld::instance().assets(), config, Rng(5));
  const std::size_t initial = session.current_probes();
  for (int round = 0; round < 30; ++round) {
    const auto subset = session.next_probe_subset();
    link_.transmit_sweep(*lab_.dut, *lab_.peer, probing_burst_schedule(subset));
    session.process_sweep();
  }
  // Static scene at a dominant-sector pose: probes decay below the start.
  EXPECT_LT(session.current_probes(), initial);
}

TEST_F(CssDaemonTest, RunsWithPrePatchedFirmware) {
  driver_.load_research_patches();
  LinkSession session(driver_, ExperimentWorld::instance().assets(), CssDaemonConfig{},
                      Rng(6));
  EXPECT_TRUE(driver_.research_patches_loaded());
}


TEST_F(CssDaemonTest, TwoSessionsShareOnePatternAssetsInstance) {
  const CssConfig defaults;
  const auto assets = PatternAssetsRegistry::global().get_or_create(
      ExperimentWorld::instance().table, defaults.search_grid, defaults.domain);

  // A second, independent link in the same room.
  Scenario second = make_lab_scenario(42);
  second.set_head(-10.0, 0.0);
  Wil6210Driver second_driver(second.peer->firmware());

  CssDaemon daemon(assets, CssDaemonConfig{});
  daemon.add_link(0, driver_, Rng(21));
  daemon.add_link(1, second_driver, Rng(22));
  ASSERT_EQ(daemon.session_count(), 2u);

  // Both sessions ride the exact same immutable assets: one pattern
  // table, one response matrix, one norm cache.
  EXPECT_EQ(daemon.session(0).assets().get(), assets.get());
  EXPECT_EQ(daemon.session(1).assets().get(), assets.get());

  // The registry deduplicates by content: the same table resolves to the
  // same instance, a different codebook to a different instance and
  // fingerprint -- sessions on different tables never alias.
  const AngularGrid grid = testutil::synthetic_grid();
  const auto synthetic = PatternAssetsRegistry::global().get_or_create(
      testutil::synthetic_table(), grid, CorrelationDomain::kLinear);
  const auto shifted = PatternAssetsRegistry::global().get_or_create(
      testutil::shifted_table(0.7), grid, CorrelationDomain::kLinear);
  EXPECT_NE(synthetic.get(), shifted.get());
  EXPECT_NE(synthetic->fingerprint(), shifted->fingerprint());
  EXPECT_EQ(PatternAssetsRegistry::global()
                .get_or_create(testutil::synthetic_table(), grid,
                               CorrelationDomain::kLinear)
                .get(),
            synthetic.get());

  // ...and both still select independently through their own drivers.
  LinkSimulator second_link = second.make_link(Rng(52));
  link_.transmit_sweep(*lab_.dut, *lab_.peer,
                       probing_burst_schedule(daemon.session(0).next_probe_subset()));
  second_link.transmit_sweep(
      *second.dut, *second.peer,
      probing_burst_schedule(daemon.session(1).next_probe_subset()));
  const auto first = daemon.session(0).process_sweep();
  const auto other = daemon.session(1).process_sweep();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(other.has_value());
  EXPECT_TRUE(driver_.sector_forced());
  EXPECT_TRUE(second_driver.sector_forced());
  EXPECT_EQ(daemon.session(0).rounds(), 1u);
  EXPECT_EQ(daemon.session(1).rounds(), 1u);
}

TEST_F(CssDaemonTest, DuplicateLinkIdThrows) {
  CssDaemon daemon(ExperimentWorld::instance().assets());
  daemon.add_link(0, driver_, Rng(8));
  Scenario second = make_lab_scenario(42);
  Wil6210Driver second_driver(second.peer->firmware());
  EXPECT_THROW(daemon.add_link(0, second_driver, Rng(9)), StateError);
  EXPECT_NO_THROW(daemon.add_link(1, second_driver, Rng(9)));
  EXPECT_THROW(daemon.session(7), StateError);
}

TEST_F(CssDaemonTest, UnknownSectorsAreDroppedCountedAndWarnedOnce) {
  // The firmware can export readings for sectors the measured pattern
  // table never covered (e.g. a codebook/campaign mismatch). The session
  // must drop them from selection, count them, and warn exactly once per
  // distinct unknown ID -- not once per sweep.
  LinkSession session(driver_, ExperimentWorld::instance().assets(), CssDaemonConfig{},
                      Rng(11));
  auto inject_unknown = [&](int id) {
    FullMacFirmware& fw = lab_.peer->firmware();
    fw.begin_peer_sweep();
    fw.on_ssw_frame(
        SswField{.cdown = 0, .sector_id = id, .is_initiator = true},
        SectorReading{.sector_id = id, .snr_db = 3.0, .rssi_dbm = -60.0});
    fw.end_peer_sweep();
  };

  ::testing::internal::CaptureStderr();
  // Round 1: a real sweep plus two readings of unknown sector 40.
  link_.transmit_sweep(*lab_.dut, *lab_.peer,
                       probing_burst_schedule(session.next_probe_subset()));
  inject_unknown(40);
  inject_unknown(40);
  const auto first = session.process_sweep();
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(first->valid);  // the known readings still select
  EXPECT_EQ(session.dropped_probes(), 2u);

  // Round 2: sector 40 again (already warned) plus new unknown sector 41.
  link_.transmit_sweep(*lab_.dut, *lab_.peer,
                       probing_burst_schedule(session.next_probe_subset()));
  inject_unknown(40);
  inject_unknown(41);
  ASSERT_TRUE(session.process_sweep().has_value());
  EXPECT_EQ(session.dropped_probes(), 4u);

  const std::string log = ::testing::internal::GetCapturedStderr();
  auto occurrences = [&](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t pos = log.find(needle); pos != std::string::npos;
         pos = log.find(needle, pos + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(occurrences("sector 40"), 1u);
  EXPECT_EQ(occurrences("sector 41"), 1u);
}

TEST_F(CssDaemonTest, SteadySubsetsHitThePanelCache) {
  // Repeated rounds resolve at most one panel build per distinct probe
  // subset; with the default random policy the cache still amortizes --
  // every sweep is one miss at most, and the selection path adds no
  // lookup traffic beyond it.
  LinkSession session(driver_, ExperimentWorld::instance().assets(), CssDaemonConfig{},
                      Rng(12));
  const ResponseMatrix& matrix =
      session.assets()->engine().response_matrix();
  const auto before = matrix.cache_stats();
  for (int round = 0; round < 10; ++round) {
    link_.transmit_sweep(*lab_.dut, *lab_.peer,
                         probing_burst_schedule(session.next_probe_subset()));
    ASSERT_TRUE(session.process_sweep().has_value());
  }
  const auto after = matrix.cache_stats();
  EXPECT_LE(after.misses - before.misses, 10u);
}

TEST_F(CssDaemonTest, PathTrackingStabilizesSelections) {
  CssDaemonConfig tracked_config;
  tracked_config.track_path = true;
  LinkSession tracked(driver_, ExperimentWorld::instance().assets(), tracked_config,
                      Rng(7));
  std::vector<int> selections;
  for (int round = 0; round < 25; ++round) {
    const auto subset = tracked.next_probe_subset();
    link_.transmit_sweep(*lab_.dut, *lab_.peer, probing_burst_schedule(subset));
    if (const auto r = tracked.process_sweep()) selections.push_back(r->sector_id);
  }
  ASSERT_GE(selections.size(), 20u);
  // The tracked daemon locks onto one sector on a static link.
  EXPECT_GE(selection_stability(selections), 0.85);
  ASSERT_TRUE(tracked.tracked_direction().has_value());
  // Head at +25 deg puts the peer at -25 deg in the device frame.
  EXPECT_LE(azimuth_distance_deg(tracked.tracked_direction()->azimuth_deg, -25.0),
            6.0);
}

// --- headless sessions on synthetic assets --------------------------------

using testutil::ideal_probes;
using testutil::synthetic_table;

CssDaemonConfig tracking_config() {
  CssDaemonConfig config;
  config.track_path = true;
  return config;
}

TEST(LinkSessionTracking, FirstSelectionSeedsTheTracker) {
  LinkSession session(testutil::make_serve_assets(), tracking_config(), Rng(1));
  EXPECT_FALSE(session.tracked_direction().has_value());

  const Direction truth{-20.0, 0.0};
  const auto result =
      session.process_report(ideal_probes(synthetic_table(), {1, 2, 3, 4, 5, 6, 7}, truth));
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->valid);
  const std::optional<Direction>& tracked = session.tracked_direction();
  ASSERT_TRUE(tracked.has_value());
  // The first update locks onto the raw estimate, and the selection is
  // Eq. 4 re-run on that tracked direction.
  EXPECT_LE(azimuth_distance_deg(tracked->azimuth_deg, truth.azimuth_deg), 6.0);
  const PatternAssets& assets = *session.assets();
  EXPECT_EQ(result->sector_id,
            assets.patterns().best_sector_at(*tracked, assets.tx_candidates()));
  EXPECT_EQ(session.last_installed_sector(), result->sector_id);
}

TEST(LinkSessionTracking, SmoothsSingleSweepJumps) {
  LinkSession session(testutil::make_serve_assets(), tracking_config(), Rng(2));
  const PatternTable table = synthetic_table();
  const std::vector<int> all{1, 2, 3, 4, 5, 6, 7, 8, 9};
  // Settle on a stable path...
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(session.process_report(ideal_probes(table, all, {-20.0, 0.0})));
  }
  const double settled = session.tracked_direction()->azimuth_deg;
  EXPECT_LE(azimuth_distance_deg(settled, -20.0), 6.0);
  // ...then one outlier sweep from the far side: the tracked direction
  // must not jump to it.
  ASSERT_TRUE(session.process_report(ideal_probes(table, all, {40.0, 0.0})));
  EXPECT_LE(azimuth_distance_deg(session.tracked_direction()->azimuth_deg, settled),
            15.0);
}

TEST(LinkSessionRebind, NextSelectionMatchesAFreshSessionOnTheNewTable) {
  // The recalibrated table keeps every sector ID, so the report below maps
  // onto the same probe-slot sequence before and after the swap -- the
  // key a stale workspace panel would be found under.
  const auto recalibrated = std::make_shared<const PatternAssets>(
      testutil::mirrored_table(), testutil::synthetic_grid(), CorrelationDomain::kLinear);
  const auto report = ideal_probes(synthetic_table(), {1, 2, 3, 4, 5, 6, 7}, {-20.0, 0.0});

  LinkSession session(testutil::make_serve_assets(), CssDaemonConfig{}, Rng(3));
  const auto before = session.process_report(report);
  session.rebind_assets(recalibrated);
  const auto rebound = session.process_report(report);
  LinkSession fresh(recalibrated, CssDaemonConfig{}, Rng(3));
  const auto expected = fresh.process_report(report);

  ASSERT_TRUE(before && rebound && expected);
  ASSERT_TRUE(before->estimated_direction && rebound->estimated_direction &&
              expected->estimated_direction);
  // The new lobes move the estimate, so a stale panel cannot pass.
  EXPECT_NE(before->estimated_direction->azimuth_deg,
            expected->estimated_direction->azimuth_deg);
  EXPECT_EQ(rebound->sector_id, expected->sector_id);
  EXPECT_EQ(rebound->estimated_direction->azimuth_deg,
            expected->estimated_direction->azimuth_deg);
  EXPECT_EQ(rebound->estimated_direction->elevation_deg,
            expected->estimated_direction->elevation_deg);
  EXPECT_EQ(rebound->correlation_peak, expected->correlation_peak);
}

}  // namespace
}  // namespace talon
