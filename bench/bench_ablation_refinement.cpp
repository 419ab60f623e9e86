// Ablation: sector-only selection vs CSS + beam refinement.
//
// Sec. 7 argues finer beam control is where compressive selection pays
// off most: "more precise beam patterns could be efficiently selected
// without adding additional training time overhead". Here CSS estimates
// the path direction from 14 probes as usual, then a BRP-style pass tries
// 15 fine-quantized AWVs around that estimate. The table compares the true
// link SNR of the codebook sector against the refined beam, plus the extra
// probes spent.
#include <cstdio>

#include "bench/common.hpp"
#include "src/core/subset_policy.hpp"

using namespace talon;

int main(int argc, char** argv) {
  const auto run = bench::run_options_from_args(argc, argv);
  const auto fidelity = run.fidelity;
  bench::print_header("Ablation: CSS sector selection + beam refinement",
                      "Sec. 7 fine-grained beam control", fidelity);

  const PatternTable table = bench::standard_pattern_table(fidelity);
  const CompressiveSectorSelector css(table);
  CorrelationWorkspace ws;
  RandomSubsetPolicy policy;
  Rng rng(11001);

  Scenario lab = make_lab_scenario(bench::kDutSeed);
  LinkSimulator link = lab.make_link(Rng(11003));
  const RefinementConfig refinement;  // 5 x 3 candidates

  std::printf("head az | optimal | CSS sector | CSS+refined | refinement gain\n");
  std::printf("        |  [dB]   |  true [dB] |  true [dB]  |      [dB]\n");
  std::printf("--------+---------+------------+-------------+----------------\n");
  RunningStats gains;
  const double az_step = fidelity == bench::Fidelity::kFull ? 3.0 : 9.0;
  for (double az = -54.0; az <= 54.0 + 1e-9; az += az_step) {
    lab.set_head(az, 0.0);
    double optimal = -1e9;
    for (int id : talon_tx_sector_ids()) {
      optimal = std::max(optimal,
                         link.true_snr_db(*lab.dut, id, *lab.peer, kRxQuasiOmniSectorId));
    }
    // One CSS round.
    const auto subset = policy.choose(talon_tx_sector_ids(), 14, rng);
    const SweepOutcome sweep =
        link.transmit_sweep(*lab.dut, *lab.peer, probing_burst_schedule(subset));
    const CssResult result = css.select(sweep.measurement.readings, ws);
    if (!result.valid || !result.estimated_direction) continue;
    const double sector_snr =
        link.true_snr_db(*lab.dut, result.sector_id, *lab.peer, kRxQuasiOmniSectorId);
    // Refinement around the CSS estimate.
    const RefinementResult refined =
        link.refine_tx_beam(*lab.dut, *lab.peer, *result.estimated_direction,
                            refinement);
    const double refined_snr =
        refined.valid ? link.true_snr_with_weights(*lab.dut, refined.weights,
                                                   *lab.peer, kRxQuasiOmniSectorId)
                      : sector_snr;
    gains.add(refined_snr - sector_snr);
    std::printf("%6.0f  | %6.2f  |   %6.2f   |   %6.2f    |     %+5.2f\n", az,
                optimal, sector_snr, refined_snr, refined_snr - sector_snr);
  }

  std::printf("\nmean refinement gain: %+.2f dB for %d extra probes\n", gains.mean(),
              refinement.azimuth_candidates * refinement.elevation_candidates);
  const TimingModel timing;
  std::printf("airtime: CSS(14)+BRP(15) ~ %.2f ms vs full sweep %.2f ms\n",
              timing.mutual_training_time_ms(14 + 15),
              timing.mutual_training_time_ms(kFullSweepProbes));
  std::printf(
      "expected: a consistent positive gain off sector peaks (the 2-bit\n"
      "codebook leaves 1-3 dB on the table), at airtime still below the\n"
      "stock sweep.\n");
  return 0;
}
