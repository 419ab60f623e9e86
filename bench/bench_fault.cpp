// Robustness campaign: selection quality under deterministic probe loss,
// comparing plain CSS, CSS with confidence-gated degradation, and the full
// SSW sweep baseline (same fault plan applied to all three). Companion to
// Fig. 9: where that figure sweeps the probe budget under clean
// conditions, this bench sweeps the loss rate at the paper's operating
// point (M = 14) and shows where graceful degradation converges to
// full-sweep quality.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/common.hpp"
#include "src/antenna/codebook.hpp"
#include "src/common/csv.hpp"
#include "src/driver/link_session.hpp"
#include "src/mac/schedule.hpp"
#include "src/sim/scenario.hpp"

using namespace talon;

namespace {

enum class Arm {
  kPlainCss,     ///< degradation disabled: faults hit an unprotected CSS
  kCssFallback,  ///< the robustness layer under test
  kFullSweep,    ///< SSW argmax over every sector (degradation pinned on)
};

struct ArmResult {
  double mean_loss_db{0.0};
  std::uint64_t full_sweep_rounds{0};
  std::uint64_t probes_lost{0};
};

/// One deterministic campaign: drive `rounds_per_pose` training rounds at
/// each head azimuth through a fresh link session and average the
/// true-SNR loss of the installed sector against the per-pose optimum.
ArmResult run_arm(Arm arm, double loss_rate, std::size_t probes,
                  const PatternTable& table,
                  const std::vector<double>& azimuths, int rounds_per_pose) {
  Scenario venue = make_conference_scenario(bench::kDutSeed);
  LinkSimulator link = venue.make_link(Rng(71));
  Wil6210Driver driver(venue.peer->firmware());

  auto plan = std::make_shared<FaultPlan>();
  plan->seed = 2026;
  plan->loss.probability = loss_rate;

  CssDaemonConfig config;
  config.probes = probes;
  config.faults = plan;
  switch (arm) {
    case Arm::kPlainCss:
      break;
    case Arm::kCssFallback:
      config.degradation.enabled = true;
      break;
    case Arm::kFullSweep:
      // Pin the state machine in full-sweep mode: the first round can
      // never be healthy and the recovery window never ends.
      config.degradation.enabled = true;
      config.degradation.min_confidence = 1e18;
      config.degradation.max_consecutive_failures = 1;
      config.degradation.recovery_rounds = 1'000'000'000;
      break;
  }

  const CssConfig css;
  const auto assets =
      PatternAssetsRegistry::global().get_or_create(table, css.search_grid, css.domain);

  // Each pose is an independent training episode (the campaigns, like the
  // paper's, re-train the link after every head move): a fresh session per
  // pose, with the previous episode's override cleared.
  ArmResult out;
  std::size_t samples = 0;
  double loss_sum = 0.0;
  std::uint64_t episode = 0;
  for (double az : azimuths) {
    venue.set_head(az, 0.0);
    double best = -1e300;
    for (int id : talon_tx_sector_ids()) {
      best = std::max(best, link.true_snr_db(*venue.dut, id, *venue.peer,
                                             kRxQuasiOmniSectorId));
    }
    if (driver.sector_forced()) driver.clear_forced_sector();
    LinkSession session(driver, assets, config, Rng(500 + episode++));

    // The full-sweep arm needs one throwaway round to trip the fallback;
    // exclude it from the average so the arm is pure SSW.
    if (arm == Arm::kFullSweep) {
      link.transmit_sweep(*venue.dut, *venue.peer,
                          probing_burst_schedule(session.next_probe_subset()));
      session.process_sweep();
    }
    for (int r = 0; r < rounds_per_pose; ++r) {
      link.transmit_sweep(*venue.dut, *venue.peer,
                          probing_burst_schedule(session.next_probe_subset()));
      session.process_sweep();
      // The beam the peer steers the DUT to: the standing override, or the
      // firmware's stock argmax when the session withheld every install.
      // Dead rounds (everything lost) keep the previous beam, exactly like
      // the real link would.
      const FullMacFirmware& fw = venue.peer->firmware();
      const int beam = fw.sector_override().value_or(fw.selected_sector());
      loss_sum += best - link.true_snr_db(*venue.dut, beam, *venue.peer,
                                          kRxQuasiOmniSectorId);
      ++samples;
    }
    out.full_sweep_rounds += session.degradation_stats().full_sweep_rounds;
    out.probes_lost += session.fault_stats().probes_lost;
  }
  out.mean_loss_db = loss_sum / static_cast<double>(samples);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto run = bench::run_options_from_args(argc, argv);
  const auto fidelity = run.fidelity;
  bench::print_header("selection quality under probe loss",
                      "robustness campaign (cf. Fig. 9)", fidelity);

  const PatternTable table = bench::standard_pattern_table(fidelity);
  const bool full = fidelity == bench::Fidelity::kFull;
  std::vector<double> azimuths;
  const double az_step = full ? 10.0 : 25.0;
  for (double az = -50.0; az <= 50.0 + 1e-9; az += az_step) {
    azimuths.push_back(az);
  }
  const int rounds_per_pose = full ? 20 : 8;

  // --- loss-rate sweep at the paper's operating point (M = 14) -------------
  const std::vector<double> loss_rates{0.0, 0.05, 0.1, 0.2,
                                       0.3, 0.5,  0.7, 0.9};
  std::printf("%zu poses x %d rounds, M = 14 probing sectors\n\n",
              azimuths.size(), rounds_per_pose);
  std::printf("loss | CSS loss [dB] | CSS+fallback [dB] | full SSW [dB] | fallback rounds\n");
  std::printf("-----+---------------+-------------------+---------------+----------------\n");
  CsvTable csv;
  csv.header = {"loss_rate", "css_loss_db", "fallback_loss_db", "ssw_loss_db",
                "fallback_full_sweep_rounds"};
  std::vector<double> fb_series, ssw_series;
  bool fallback_never_hurts = true;
  for (double rate : loss_rates) {
    const ArmResult css = run_arm(Arm::kPlainCss, rate, 14, table, azimuths,
                                  rounds_per_pose);
    const ArmResult fb = run_arm(Arm::kCssFallback, rate, 14, table, azimuths,
                                 rounds_per_pose);
    const ArmResult ssw = run_arm(Arm::kFullSweep, rate, 14, table, azimuths,
                                  rounds_per_pose);
    std::printf("%4.2f |     %6.2f    |       %6.2f      |     %6.2f    | %8llu\n",
                rate, css.mean_loss_db, fb.mean_loss_db, ssw.mean_loss_db,
                static_cast<unsigned long long>(fb.full_sweep_rounds));
    csv.rows.push_back({rate, css.mean_loss_db, fb.mean_loss_db,
                        ssw.mean_loss_db,
                        static_cast<double>(fb.full_sweep_rounds)});
    if (fb.mean_loss_db > css.mean_loss_db + 0.05) fallback_never_hurts = false;
    fb_series.push_back(fb.mean_loss_db);
    ssw_series.push_back(ssw.mean_loss_db);
  }
  // Sustained convergence: the first loss rate from which the fallback
  // stays within 0.3 dB of the full sweep through the extreme-loss end.
  double crossover = -1.0;
  for (std::size_t k = loss_rates.size(); k-- > 0;) {
    if (fb_series[k] > ssw_series[k] + 0.3) break;
    crossover = loss_rates[k];
  }
  write_csv_file("bench_fault_loss.csv", csv);
  std::printf("series written to bench_fault_loss.csv\n\n");

  // --- probe-budget sweep at a bursty 30%% loss ----------------------------
  const std::vector<std::size_t> probe_counts{6, 10, 14, 20, 28, 34};
  const double fixed_loss = 0.3;
  const ArmResult ssw_ref = run_arm(Arm::kFullSweep, fixed_loss, 14, table,
                                    azimuths, rounds_per_pose);
  std::printf("probe-budget sweep at %.0f%% loss (full SSW: %.2f dB)\n",
              fixed_loss * 100.0, ssw_ref.mean_loss_db);
  std::printf("probes | CSS loss [dB] | CSS+fallback [dB]\n");
  std::printf("-------+---------------+------------------\n");
  CsvTable probes_csv;
  probes_csv.header = {"probes", "css_loss_db", "fallback_loss_db",
                       "ssw_loss_db"};
  for (std::size_t m : probe_counts) {
    const ArmResult css = run_arm(Arm::kPlainCss, fixed_loss, m, table,
                                  azimuths, rounds_per_pose);
    const ArmResult fb = run_arm(Arm::kCssFallback, fixed_loss, m, table,
                                 azimuths, rounds_per_pose);
    std::printf("%6zu |     %6.2f    |       %6.2f\n", m, css.mean_loss_db,
                fb.mean_loss_db);
    probes_csv.rows.push_back({static_cast<double>(m), css.mean_loss_db,
                               fb.mean_loss_db, ssw_ref.mean_loss_db});
  }
  write_csv_file("bench_fault_probes.csv", probes_csv);
  std::printf("series written to bench_fault_probes.csv\n\n");

  if (fallback_never_hurts) {
    std::printf("CSS+fallback matched or beat plain CSS at every loss rate.\n");
  } else {
    std::printf("WARNING: CSS+fallback fell behind plain CSS somewhere -- "
                "retune DegradationConfig.min_confidence.\n");
  }
  if (crossover >= 0.0) {
    std::printf("from %.0f%% loss on, graceful degradation converges to "
                "full-sweep quality (within 0.3 dB).\n",
                crossover * 100.0);
  } else {
    std::printf("graceful degradation did not reach full-sweep quality at "
                "extreme loss in this run.\n");
  }
  return 0;
}
