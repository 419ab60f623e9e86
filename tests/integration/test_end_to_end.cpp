// Integration tests spanning the whole stack: firmware patches -> sweep ->
// ring buffer -> user-space CSS -> WMI override -> feedback, plus the
// Table 1 capture flow and the paper's headline claims at coarse scale.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/core/adaptive.hpp"
#include "src/core/css.hpp"
#include "src/core/ssw.hpp"
#include "src/core/subset_policy.hpp"
#include "src/mac/monitor.hpp"
#include "src/mac/timing.hpp"
#include "src/measure/campaign.hpp"
#include "src/sim/experiment.hpp"
#include "tests/sim/experiment_fixture.hpp"

namespace talon {
namespace {

using testutil::ExperimentWorld;

TEST(EndToEnd, Table1CaptureFromMonitorMode) {
  // Three devices: AP beacons + sweeps, monitor captures (Sec. 4.1).
  Scenario s = make_anechoic_scenario(7);
  LinkSimulator link = s.make_link(Rng(3));
  MonitorCapture monitor;
  for (int i = 0; i < 3; ++i) {
    link.transmit_beacons(*s.dut, &monitor);
    link.transmit_sweep(*s.dut, *s.peer, sweep_burst_schedule(), &monitor);
  }
  // Beacon row of Table 1.
  const auto beacon = monitor.cdown_to_sectors(FrameType::kBeacon);
  EXPECT_EQ(beacon.count(34), 0u);
  EXPECT_EQ(*beacon.at(33).begin(), 63);
  EXPECT_EQ(beacon.count(32), 0u);
  for (int cdown = 31; cdown >= 1; --cdown) {
    EXPECT_EQ(*beacon.at(cdown).begin(), 32 - cdown);
  }
  EXPECT_EQ(beacon.count(0), 0u);
  // Sweep row of Table 1.
  const auto sweep = monitor.cdown_to_sectors(FrameType::kSectorSweep);
  for (int cdown = 34; cdown >= 4; --cdown) {
    EXPECT_EQ(*sweep.at(cdown).begin(), 35 - cdown);
  }
  EXPECT_EQ(sweep.count(3), 0u);
  EXPECT_EQ(*sweep.at(2).begin(), 61);
  EXPECT_EQ(*sweep.at(1).begin(), 62);
  EXPECT_EQ(*sweep.at(0).begin(), 63);
  // "The sector sweeping settings stay constant over time."
  EXPECT_TRUE(monitor.schedule_is_constant(FrameType::kBeacon));
  EXPECT_TRUE(monitor.schedule_is_constant(FrameType::kSectorSweep));
}

TEST(EndToEnd, UserSpaceCssViaFirmwareInterfaces) {
  // The full Sec. 3 integration: probing sweep, ring-buffer readout via
  // WMI, CSS in "user space", override via WMI, feedback carries it.
  const ExperimentWorld& world = ExperimentWorld::instance();
  const CompressiveSectorSelector css(world.table);
  CorrelationWorkspace ws;

  Scenario lab = make_lab_scenario(42);
  lab.set_head(-30.0, 0.0);
  LinkSimulator link = lab.make_link(Rng(17));
  FullMacFirmware& peer_fw = lab.peer->firmware();
  peer_fw.apply_research_patches();

  RandomSubsetPolicy policy;
  Rng rng(21);
  const auto subset = policy.choose(talon_tx_sector_ids(), 14, rng);
  link.transmit_sweep(*lab.dut, *lab.peer, probing_burst_schedule(subset));

  // User space drains the ring buffer.
  const WmiResponse info = peer_fw.handle_wmi({.type = WmiCommandType::kReadSweepInfo});
  ASSERT_EQ(info.status, WmiStatus::kOk);
  ASSERT_GE(info.entries.size(), 3u);
  std::vector<SectorReading> probes;
  for (const SweepInfoEntry& e : info.entries) {
    probes.push_back(SectorReading{
        .sector_id = e.sector_id, .snr_db = e.snr_db, .rssi_dbm = e.rssi_dbm});
  }
  const CssResult result = css.select(probes, ws);
  ASSERT_TRUE(result.valid);

  // Estimated direction should be near the physical one (+30 in device frame).
  ASSERT_TRUE(result.estimated_direction.has_value());
  EXPECT_LE(azimuth_distance_deg(result.estimated_direction->azimuth_deg, 30.0),
            8.0);

  // Install the override and check the next sweep's feedback carries it.
  ASSERT_EQ(peer_fw
                .handle_wmi({.type = WmiCommandType::kSetSectorOverride,
                             .sector_id = result.sector_id})
                .status,
            WmiStatus::kOk);
  const SweepOutcome next =
      link.transmit_sweep(*lab.dut, *lab.peer, sweep_burst_schedule());
  EXPECT_EQ(next.feedback.selected_sector_id, result.sector_id);

  // The CSS-selected sector must be close in true SNR to the best sector.
  double best = -1e9;
  for (int id : talon_tx_sector_ids()) {
    best = std::max(best, link.true_snr_db(*lab.dut, id, *lab.peer,
                                           kRxQuasiOmniSectorId));
  }
  const double chosen =
      link.true_snr_db(*lab.dut, result.sector_id, *lab.peer, kRxQuasiOmniSectorId);
  EXPECT_GE(chosen, best - 5.0);
}

TEST(EndToEnd, CssWith14ProbesMatchesSswQuality) {
  // The headline claim (Sec. 6.5): 14 of 34 probes suffice to match the
  // sweep's selection quality, at 2.3x lower training time.
  const ExperimentWorld& world = ExperimentWorld::instance();
  const CompressiveSectorSelector css(world.table);
  CssSelector selector(css);
  RandomSubsetPolicy policy;
  const std::vector<std::size_t> probes{14};
  const auto rows = selection_quality_analysis(world.conference_records, selector,
                                               probes, policy, 555);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_LE(rows[0].css_snr_loss_db, rows[0].ssw_snr_loss_db + 0.8);
  EXPECT_GE(rows[0].css_stability, rows[0].ssw_stability - 0.1);

  const TimingModel timing;
  EXPECT_NEAR(timing.speedup_vs_full_sweep(14), 2.3, 0.05);
}

TEST(EndToEnd, PatternTableSurvivesCsvRoundTripIntoCss) {
  // Persist the measured table, reload it, and verify CSS behaves
  // identically -- the paper publishes its patterns as data files.
  const ExperimentWorld& world = ExperimentWorld::instance();
  const PatternTable reloaded = PatternTable::from_csv(world.table.to_csv());
  const CompressiveSectorSelector css_a(world.table);
  const CompressiveSectorSelector css_b(reloaded);
  CorrelationWorkspace ws_a;
  CorrelationWorkspace ws_b;

  Scenario lab = make_lab_scenario(42);
  lab.set_head(20.0, 0.0);
  LinkSimulator link = lab.make_link(Rng(31));
  RandomSubsetPolicy policy;
  Rng rng(33);
  for (int i = 0; i < 5; ++i) {
    const auto subset = policy.choose(talon_tx_sector_ids(), 14, rng);
    const SweepOutcome sweep =
        link.transmit_sweep(*lab.dut, *lab.peer, probing_burst_schedule(subset));
    const CssResult a = css_a.select(sweep.measurement.readings, ws_a);
    const CssResult b = css_b.select(sweep.measurement.readings, ws_b);
    EXPECT_EQ(a.valid, b.valid);
    if (a.valid) {
      EXPECT_EQ(a.sector_id, b.sector_id);
    }
  }
}

TEST(EndToEnd, AdaptiveControllerConvergesInStaticScene) {
  // Sec. 7 extension: on a static link the probe count must not grow --
  // benign tie-flips between two near-equal sectors are debounced, and
  // stable runs decay the count toward the floor.
  const ExperimentWorld& world = ExperimentWorld::instance();
  const CompressiveSectorSelector css(world.table);
  CorrelationWorkspace ws;
  Scenario lab = make_lab_scenario(42);
  // Head at 20 deg: one sector clearly dominates there (no boresight tie),
  // so a static link yields a stable selection stream.
  lab.set_head(20.0, 0.0);
  LinkSimulator link = lab.make_link(Rng(41));
  RandomSubsetPolicy policy;
  Rng rng(43);
  AdaptiveProbeController controller;
  int previous = -1;
  for (int sweep = 0; sweep < 30; ++sweep) {
    const auto subset = policy.choose(
        talon_tx_sector_ids(), controller.current_probes(), rng);
    const SweepOutcome out =
        link.transmit_sweep(*lab.dut, *lab.peer, probing_burst_schedule(subset));
    const CssResult r = css.select(out.measurement.readings, ws);
    const int chosen = r.valid ? r.sector_id : previous;
    if (chosen < 0) continue;
    previous = chosen;
    controller.report_selection(chosen);
  }
  EXPECT_LE(controller.current_probes(), 20u);
}


TEST(EndToEnd, BlockageRecoveryViaReflectedPath) {
  // A person steps into the LOS (25 dB at 60 GHz): compressive path
  // tracking must re-acquire via the whiteboard reflection -- the estimate
  // shifts to the reflected path's direction and the new sector restores a
  // usable link.
  const ExperimentWorld& world = ExperimentWorld::instance();
  const CompressiveSectorSelector css(world.table);
  CorrelationWorkspace ws;

  Scenario conf = make_conference_scenario(42);
  conf.set_head(0.0, 0.0);
  auto* env = dynamic_cast<RayTracedEnvironment*>(conf.environment.get());
  ASSERT_NE(env, nullptr);
  LinkSimulator link = conf.make_link(Rng(71));
  RandomSubsetPolicy policy;
  Rng rng(73);

  const auto select_once = [&] {
    const auto subset = policy.choose(talon_tx_sector_ids(), 20, rng);
    const SweepOutcome out =
        link.transmit_sweep(*conf.dut, *conf.peer, probing_burst_schedule(subset));
    return css.select(out.measurement.readings, ws);
  };

  const CssResult clear = select_once();
  ASSERT_TRUE(clear.valid);
  ASSERT_TRUE(clear.estimated_direction.has_value());
  EXPECT_LE(azimuth_distance_deg(clear.estimated_direction->azimuth_deg, 0.0), 6.0);

  env->set_los_blockage_db(25.0);
  const CssResult blocked = select_once();
  ASSERT_TRUE(blocked.valid);
  ASSERT_TRUE(blocked.estimated_direction.has_value());
  // The whiteboard (y = 2.2 m) image of the peer sits at about +36 deg in
  // the device frame; the estimate must move clearly off boresight toward it.
  EXPECT_GT(blocked.estimated_direction->azimuth_deg, 15.0);

  // The re-acquired sector must beat sticking with the old LOS sector.
  const double stay_snr = link.true_snr_db(*conf.dut, clear.sector_id, *conf.peer,
                                           kRxQuasiOmniSectorId);
  const double switch_snr = link.true_snr_db(*conf.dut, blocked.sector_id,
                                             *conf.peer, kRxQuasiOmniSectorId);
  EXPECT_GT(switch_snr, stay_snr + 3.0);
}

}  // namespace
}  // namespace talon
