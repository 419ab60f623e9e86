// Mobility & blockage campaign: how fast each selection strategy
// re-aligns the beam when the user walks, rotates the device, or steps
// into the LOS (sim/mobility.hpp on the deterministic event engine).
//
// Two sweeps, each racing the three arms (full-SSW argmax, CSS with
// degradation, CSS + path tracking) through IDENTICAL worlds:
//   1. outage fraction and re-alignment latency vs walking speed
//      (blockage held at the reference rate), and
//   2. the same vs body-blockage rate (walking held at 1.2 m/s).
// Both series are printed and written as CSVs into the working directory.
//
// The acceptance bar this driver enforces: the FULL campaign record --
// every per-arm double, every world-process counter -- is bit-identical
// at every thread count; the bench exits non-zero otherwise.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/common.hpp"
#include "src/common/csv.hpp"
#include "src/sim/mobility.hpp"

using namespace talon;

namespace {

MobilityConfig campaign_config(bench::Fidelity fidelity, int threads) {
  MobilityConfig config;
  config.duration_s = fidelity == bench::Fidelity::kFull ? 20.0 : 6.0;
  config.training_interval_s = 0.05;
  config.probes = 14;
  config.seed = 20260807;
  config.dut_seed = bench::kDutSeed;
  config.threads = threads;
  config.blockage.rate_hz = 0.5;
  config.blockage.mean_duration_s = 0.6;
  return config;
}

void print_result_rows(double x, const MobilityRunResult& result) {
  for (const MobilityArmResult& arm : result.arms) {
    std::printf("%6.2f | %-12s | %6.1f%% | %9.2f | %10.3f | %10.3f | %8zu\n",
                x, to_string(arm.arm), arm.outage_fraction * 100.0,
                arm.mean_loss_db, arm.median_realign_s, arm.p90_realign_s,
                static_cast<std::size_t>(arm.realign_episodes));
  }
}

void append_csv_rows(CsvTable& csv, double x, const MobilityRunResult& result) {
  for (const MobilityArmResult& arm : result.arms) {
    csv.rows.push_back({x, static_cast<double>(static_cast<int>(arm.arm)),
                        arm.outage_fraction, arm.mean_loss_db,
                        arm.worst_loss_db,
                        static_cast<double>(arm.realign_episodes),
                        arm.median_realign_s, arm.p90_realign_s,
                        arm.worst_realign_s});
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto run = bench::run_options_from_args(argc, argv);
  bench::print_header("mobility & blockage re-alignment",
                      "dynamic-world campaign (InferBeam regime)",
                      run.fidelity);
  const PatternTable table = bench::standard_pattern_table(run.fidelity);
  const bool full = run.fidelity == bench::Fidelity::kFull;

  const char* kTableHeader =
      "     x | arm          | outage  | loss [dB] | median [s] |    p90 [s] | episodes\n"
      "-------+--------------+---------+-----------+------------+------------+---------";
  const std::vector<std::string> kCsvHeader{
      "x",          "arm",           "outage_fraction",
      "mean_loss_db", "worst_loss_db", "realign_episodes",
      "median_realign_s", "p90_realign_s", "worst_realign_s"};

  // --- sweep 1: walking speed (blockage at the reference 0.5/s) -------------
  const std::vector<double> speeds =
      full ? std::vector<double>{0.0, 0.6, 1.2, 2.0, 3.0}
           : std::vector<double>{0.6, 1.2, 2.4};
  std::printf("outage / re-alignment vs walking speed [m/s]:\n%s\n",
              kTableHeader);
  CsvTable speed_csv;
  speed_csv.header = kCsvHeader;
  for (double speed : speeds) {
    MobilityConfig config = campaign_config(run.fidelity, run.threads);
    config.walk.speed_mps = speed;
    const MobilityRunResult result = MobilitySimulator(config, table).run();
    print_result_rows(speed, result);
    append_csv_rows(speed_csv, speed, result);
  }
  write_csv_file("bench_mobility_speed.csv", speed_csv);
  std::printf("series written to bench_mobility_speed.csv\n\n");

  // --- sweep 2: blockage rate (walking at 1.2 m/s) --------------------------
  const std::vector<double> rates =
      full ? std::vector<double>{0.0, 0.25, 0.5, 1.0, 2.0}
           : std::vector<double>{0.0, 0.5, 1.5};
  std::printf("outage / re-alignment vs body-blockage rate [1/s]:\n%s\n",
              kTableHeader);
  CsvTable rate_csv;
  rate_csv.header = kCsvHeader;
  for (double rate : rates) {
    MobilityConfig config = campaign_config(run.fidelity, run.threads);
    config.blockage.rate_hz = rate;
    const MobilityRunResult result = MobilitySimulator(config, table).run();
    print_result_rows(rate, result);
    append_csv_rows(rate_csv, rate, result);
  }
  write_csv_file("bench_mobility_blockage.csv", rate_csv);
  std::printf("series written to bench_mobility_blockage.csv\n\n");

  // --- cross-thread determinism: the full record, bit for bit ---------------
  std::printf("cross-thread determinism (reference campaign):\n");
  std::printf("threads | run [ms] | bit-identical to serial\n");
  std::printf("--------+----------+------------------------\n");
  MobilityRunResult serial;
  bool identical = true;
  for (int threads : {1, 2, 4, 7}) {
    MobilityConfig config = campaign_config(run.fidelity, threads);
    config.churn.rate_hz = 0.2;  // exercise every world process
    MobilitySimulator sim(config, table);
    const auto start = std::chrono::steady_clock::now();
    const MobilityRunResult result = sim.run();
    const auto end = std::chrono::steady_clock::now();
    const bool same = threads == 1 || result == serial;
    if (threads == 1) serial = result;
    identical = identical && same;
    std::printf("%7d | %8.1f | %s\n", threads,
                std::chrono::duration<double, std::milli>(end - start).count(),
                threads == 1 ? "(baseline)" : (same ? "yes" : "NO"));
  }
  if (!identical) {
    std::printf("\nFAILED: thread count changed the mobility result\n");
    return 1;
  }
  std::printf("\nall thread counts reproduce the serial result, bit for bit.\n");
  return 0;
}
