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

TEST(CssDaemonBatch, ProcessSweepsBitIdenticalToPerSessionProcessing) {
  // Two mirrored three-link worlds, identical seeds: world A completes
  // each round with per-session process_sweep(), world B with the
  // daemon's batched process_sweeps() -- one walk for all three links:
  // a plain one, a degradation-gated one (confidence from the walk's
  // rival pass) and a tracking one (the tracker post-processes its
  // batched direction). Every selection -- including the installed
  // overrides and the confidence -- must match bit for bit, round after
  // round.
  const CssConfig defaults;
  const auto assets = PatternAssetsRegistry::global().get_or_create(
      ExperimentWorld::instance().table, defaults.search_grid, defaults.domain);

  Scenario a0 = make_lab_scenario(42);
  Scenario a1 = make_lab_scenario(42);
  Scenario a2 = make_lab_scenario(42);
  Scenario b0 = make_lab_scenario(42);
  Scenario b1 = make_lab_scenario(42);
  Scenario b2 = make_lab_scenario(42);
  a0.set_head(25.0, 0.0);
  b0.set_head(25.0, 0.0);
  a1.set_head(-10.0, 0.0);
  b1.set_head(-10.0, 0.0);
  a2.set_head(5.0, 0.0);
  b2.set_head(5.0, 0.0);
  Wil6210Driver da0(a0.peer->firmware()), da1(a1.peer->firmware()),
      da2(a2.peer->firmware());
  Wil6210Driver db0(b0.peer->firmware()), db1(b1.peer->firmware()),
      db2(b2.peer->firmware());
  LinkSimulator la0 = a0.make_link(Rng(101));
  LinkSimulator la1 = a1.make_link(Rng(102));
  LinkSimulator la2 = a2.make_link(Rng(103));
  LinkSimulator lb0 = b0.make_link(Rng(101));
  LinkSimulator lb1 = b1.make_link(Rng(102));
  LinkSimulator lb2 = b2.make_link(Rng(103));

  CssDaemonConfig gated;
  gated.degradation.enabled = true;
  CssDaemonConfig tracked;
  tracked.track_path = true;
  CssDaemon daemon_a(assets, CssDaemonConfig{});
  daemon_a.add_link(0, da0, Rng(21));
  daemon_a.add_link(1, da1, Rng(22), gated);
  daemon_a.add_link(2, da2, Rng(23), tracked);
  CssDaemon daemon_b(assets, CssDaemonConfig{});
  daemon_b.add_link(0, db0, Rng(21));
  daemon_b.add_link(1, db1, Rng(22), gated);
  daemon_b.add_link(2, db2, Rng(23), tracked);

  Scenario* const sa[3] = {&a0, &a1, &a2};
  Scenario* const sb[3] = {&b0, &b1, &b2};
  LinkSimulator* const la[3] = {&la0, &la1, &la2};
  LinkSimulator* const lb[3] = {&lb0, &lb1, &lb2};
  Wil6210Driver* const dvb[3] = {&db0, &db1, &db2};

  auto expect_equal = [](const std::optional<CssResult>& x,
                         const std::optional<CssResult>& y) {
    ASSERT_EQ(x.has_value(), y.has_value());
    if (!x) return;
    EXPECT_EQ(x->valid, y->valid);
    EXPECT_EQ(x->sector_id, y->sector_id);
    EXPECT_EQ(x->correlation_peak, y->correlation_peak);  // bit-identical
    EXPECT_EQ(x->fallback_used, y->fallback_used);
    EXPECT_EQ(x->confidence, y->confidence);
    ASSERT_EQ(x->estimated_direction.has_value(),
              y->estimated_direction.has_value());
    if (x->estimated_direction) {
      EXPECT_EQ(x->estimated_direction->azimuth_deg,
                y->estimated_direction->azimuth_deg);
      EXPECT_EQ(x->estimated_direction->elevation_deg,
                y->estimated_direction->elevation_deg);
    }
  };

  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 3; ++i) {
      const auto sub_a = daemon_a.session(i).next_probe_subset();
      const auto sub_b = daemon_b.session(i).next_probe_subset();
      ASSERT_EQ(sub_a, sub_b);
      la[i]->transmit_sweep(*sa[i]->dut, *sa[i]->peer,
                            probing_burst_schedule(sub_a));
      lb[i]->transmit_sweep(*sb[i]->dut, *sb[i]->peer,
                            probing_burst_schedule(sub_b));
    }
    std::map<int, std::optional<CssResult>> reference;
    for (int i = 0; i < 3; ++i) {
      reference[i] = daemon_a.session(i).process_sweep();
    }
    const auto batched = daemon_b.process_sweeps();
    ASSERT_EQ(batched.size(), 3u);
    for (int i = 0; i < 3; ++i) {
      SCOPED_TRACE("round " + std::to_string(round) + " link " +
                   std::to_string(i));
      expect_equal(reference.at(i), batched.at(i));
      if (reference.at(i).has_value()) {
        EXPECT_EQ(dvb[i]->sector_forced(), true);
        EXPECT_EQ(sb[i]->peer->firmware().sector_override(),
                  sa[i]->peer->firmware().sector_override());
      }
    }
  }

  // An all-empty round (nothing transmitted): every entry is nullopt on
  // both paths and no override moves.
  std::map<int, std::optional<CssResult>> reference;
  for (int i = 0; i < 3; ++i) reference[i] = daemon_a.session(i).process_sweep();
  const auto batched = daemon_b.process_sweeps();
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(reference.at(i).has_value());
    EXPECT_FALSE(batched.at(i).has_value());
  }
}

TEST(CssDaemonCrossAssets, PerLinkAssetsNeverAliasIntoTheSharedBatchWalk) {
  // Three headless links: 0 and 1 ride the daemon's shared assets (and
  // join the shared walk), 2 is registered with its OWN assets built from a
  // genuinely different codebook. The batched round must (a) keep links
  // 0/1 bit-identical to solo processing, (b) route link 2 through its
  // own table -- never through the shared fingerprint.
  const AngularGrid grid = testutil::synthetic_grid();
  const PatternTable shared_table = testutil::synthetic_table();
  // Per-sector gain tilt: a different codebook whose selections cannot
  // coincide numerically with the shared one (a uniform shift would --
  // normalized correlation is scale-invariant).
  PatternTable warped_table;
  for (int id : shared_table.ids()) {
    Grid2D pattern = shared_table.pattern(id);
    for (std::size_t ie = 0; ie < grid.elevation.count; ++ie) {
      for (std::size_t ia = 0; ia < grid.azimuth.count; ++ia) {
        pattern.set(ia, ie, pattern.at(ia, ie) + 0.7 * id);
      }
    }
    warped_table.add(id, std::move(pattern));
  }

  const auto shared = PatternAssetsRegistry::global().get_or_create(
      shared_table, grid, CorrelationDomain::kLinear);
  const auto warped = PatternAssetsRegistry::global().get_or_create(
      warped_table, grid, CorrelationDomain::kLinear);
  // The registry deduplicates by content: the same table resolves to the
  // same instance, different fingerprints never alias.
  ASSERT_NE(shared.get(), warped.get());
  ASSERT_NE(shared->fingerprint(), warped->fingerprint());
  EXPECT_EQ(PatternAssetsRegistry::global()
                .get_or_create(testutil::synthetic_table(), grid,
                               CorrelationDomain::kLinear)
                .get(),
            shared.get());

  CssDaemonConfig config;
  config.probes = 6;
  CssDaemon daemon(shared, config);
  daemon.add_headless_link(0, Rng(31));
  daemon.add_headless_link(1, Rng(32));
  daemon.add_headless_link(2, Rng(33), config, warped);
  EXPECT_EQ(daemon.session(0).assets().get(), shared.get());
  EXPECT_EQ(daemon.session(1).assets().get(), shared.get());
  EXPECT_EQ(daemon.session(2).assets().get(), warped.get());

  // Solo references: links 0/1 over the shared assets, link 2 over its
  // own, plus an ALIAS DETECTOR -- link 2's exact seed and reports over
  // the shared assets, which is what a buggy batch walk would compute.
  CssDaemon solo_shared(shared, config);
  solo_shared.add_headless_link(0, Rng(31));
  solo_shared.add_headless_link(1, Rng(32));
  CssDaemon solo_warped(warped, config);
  solo_warped.add_headless_link(2, Rng(33));
  CssDaemon alias_detector(shared, config);
  alias_detector.add_headless_link(2, Rng(33));

  auto expect_equal = [](const std::optional<CssResult>& x,
                         const std::optional<CssResult>& y) {
    ASSERT_EQ(x.has_value(), y.has_value());
    if (!x) return;
    EXPECT_EQ(x->valid, y->valid);
    EXPECT_EQ(x->sector_id, y->sector_id);
    EXPECT_EQ(x->correlation_peak, y->correlation_peak);
    EXPECT_EQ(x->confidence, y->confidence);
  };

  bool alias_would_differ = false;
  for (std::uint64_t round = 0; round < 5; ++round) {
    std::vector<std::vector<SectorReading>> reports;
    for (int i = 0; i < 3; ++i) {
      const PatternTable& table =
          i == 2 ? warped->patterns() : shared->patterns();
      reports.push_back(testutil::make_report(4242, i, round, table));
      daemon.session(i).prepare_report(reports.back());
    }
    std::map<int, std::optional<CssResult>> out;
    daemon.complete_prepared(&out);
    ASSERT_EQ(out.size(), 3u);

    SCOPED_TRACE("round " + std::to_string(round));
    expect_equal(out.at(0), solo_shared.process_report(0, reports[0]));
    expect_equal(out.at(1), solo_shared.process_report(1, reports[1]));
    expect_equal(out.at(2), solo_warped.process_report(2, reports[2]));
    const auto aliased = alias_detector.process_report(2, reports[2]);
    if (out.at(2) && aliased &&
        (out.at(2)->correlation_peak != aliased->correlation_peak ||
         out.at(2)->sector_id != aliased->sector_id)) {
      alias_would_differ = true;
    }
  }
  // The detector must have disagreed somewhere: otherwise this test
  // could not tell a correctly routed link 2 from an aliased one.
  EXPECT_TRUE(alias_would_differ);
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

}  // namespace
}  // namespace talon
