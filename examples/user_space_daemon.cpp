// Example: the complete user-space stack, as it runs on a jailbroken
// router -- driver facade, CSS daemon, adaptive probing, and a mid-run
// blockage event.
//
//   [DUT sweeps] --air--> [peer firmware ring buffer]
//                             | Wil6210Driver::read_sweep_readings()
//                         [CssDaemon: Eq. 2-5 selection]
//                             | Wil6210Driver::force_sector()
//                         [feedback steers the DUT]
//
// Midway, a person steps into the line of sight (25 dB blockage): the
// daemon's next selections move to a reflected-path sector and the link
// survives at reduced SNR; when the person moves away, it returns.

#include <cstdio>

#include "src/driver/css_daemon.hpp"
#include "src/measure/campaign.hpp"
#include "src/sim/scenario.hpp"

int main() {
  using namespace talon;

  // Pattern table (quick chamber campaign for the DUT's device).
  Scenario chamber = make_anechoic_scenario(/*seed=*/42);
  CampaignConfig campaign;
  campaign.azimuth = make_axis(-90.0, 90.0, 3.6);
  campaign.elevation = make_axis(0.0, 32.4, 5.4);
  campaign.repetitions = 2;
  const PatternTable table = measure_sector_patterns(chamber, campaign).table;

  Scenario room = make_conference_scenario(/*seed=*/42);
  room.set_head(0.0, 0.0);
  auto* env = dynamic_cast<RayTracedEnvironment*>(room.environment.get());
  LinkSimulator link = room.make_link(Rng(61));

  // The daemon runs on the host of the *peer* (the node producing feedback).
  Wil6210Driver driver(room.peer->firmware());
  std::printf("firmware %s, loading research patches...\n",
              driver.firmware_version().c_str());
  CssDaemonConfig daemon_config;
  daemon_config.adaptive = true;
  const CssConfig css;
  CssDaemon daemon(
      PatternAssetsRegistry::global().get_or_create(table, css.search_grid, css.domain),
      daemon_config);
  LinkSession& session = daemon.add_link(0, driver, Rng(63));

  std::printf("\nround | probes | blockage | selected | est az | true SNR [dB]\n");
  std::printf("------+--------+----------+----------+--------+---------------\n");
  for (int round = 0; round < 24; ++round) {
    // A person blocks the LOS during rounds 8..15.
    const bool blocked = round >= 8 && round < 16;
    env->set_los_blockage_db(blocked ? 25.0 : 0.0);

    const auto subset = session.next_probe_subset();
    link.transmit_sweep(*room.dut, *room.peer, probing_burst_schedule(subset));
    const auto result = session.process_sweep();

    if (result) {
      const double snr = link.true_snr_db(*room.dut, result->sector_id, *room.peer,
                                          kRxQuasiOmniSectorId);
      std::printf("%5d |  %4zu  |   %s    |   %3d    | %6.1f | %8.2f\n", round,
                  subset.size(), blocked ? "yes" : " no", result->sector_id,
                  result->estimated_direction ? result->estimated_direction->azimuth_deg
                                              : -999.0,
                  snr);
    } else {
      std::printf("%5d |  %4zu  |   %s    |   (none decoded)\n", round,
                  subset.size(), blocked ? "yes" : " no");
    }
  }
  std::printf(
      "\nduring the blockage the selections move to a reflected-path sector\n"
      "(estimate off boresight, lower but usable SNR); after it clears they\n"
      "return to the direct beam. %zu rounds processed.\n",
      session.rounds());
  return 0;
}
