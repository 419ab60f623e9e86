// Ablation: correlation search-grid resolution (Eq. 3 is solved "given a
// discrete grid of phi and theta ... numerically"). Finer grids cost
// compute per sweep; coarser grids quantize the estimate. This bench
// reports accuracy and per-selection wall time across azimuth steps.
#include <chrono>
#include <cstdio>

#include "bench/common.hpp"
#include "src/core/subset_policy.hpp"

using namespace talon;

int main(int argc, char** argv) {
  const auto run = bench::run_options_from_args(argc, argv);
  const auto fidelity = run.fidelity;
  bench::print_header("Ablation: Eq. 3 search-grid resolution",
                      "Sec. 2.2 numerical search", fidelity);

  const PatternTable table = bench::standard_pattern_table(fidelity);

  RecordingConfig rec;
  const double az_step = fidelity == bench::Fidelity::kFull ? 2.5 : 7.5;
  for (double az = -60.0; az <= 60.0 + 1e-9; az += az_step) {
    rec.head_azimuths_deg.push_back(az);
  }
  rec.head_tilts_deg = {0.0};
  rec.sweeps_per_pose = fidelity == bench::Fidelity::kFull ? 20 : 10;
  rec.seed = 7001;
  Scenario lab = make_lab_scenario(bench::kDutSeed);
  const auto records = record_sweeps(lab, rec);

  RandomSubsetPolicy policy;
  const std::vector<std::size_t> probes{14};

  std::printf("az step | grid pts | az med / p99.5 [deg] | time per selection\n");
  std::printf("--------+----------+----------------------+-------------------\n");
  for (double step : {6.0, 3.0, 1.5, 0.75, 0.375}) {
    CssConfig config;
    config.search_grid.azimuth = make_axis(-90.0, 90.0, step);
    config.search_grid.elevation = make_axis(0.0, 32.0, 2.0);
    const CompressiveSectorSelector css(table, config);
    CssSelector selector(css);
    const auto rows = estimation_error_analysis(records, selector, probes, policy, 7100);

    // Wall time of the selection itself.
    Rng rng(7200);
    std::vector<std::vector<SectorReading>> probe_sets;
    for (int i = 0; i < 50; ++i) {
      const auto subset = policy.choose(talon_tx_sector_ids(), 14, rng);
      std::vector<SectorReading> filtered;
      for (const SectorReading& r :
           records[static_cast<std::size_t>(i) % records.size()].measurement.readings) {
        for (int id : subset) {
          if (r.sector_id == id) filtered.push_back(r);
        }
      }
      if (filtered.size() >= 3) probe_sets.push_back(std::move(filtered));
    }
    const auto start = std::chrono::steady_clock::now();
    CorrelationWorkspace ws;
    for (const auto& set : probe_sets) (void)css.select(set, ws);
    const auto elapsed = std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - start)
                             .count() /
                         static_cast<double>(probe_sets.size());
    std::printf("%6.3f  | %8zu |   %5.2f / %6.2f     |   %8.1f us\n", step,
                config.search_grid.size(), rows[0].azimuth_error.median,
                rows[0].azimuth_error.whisker_high, elapsed);
  }
  std::printf(
      "\nexpected: error saturates once the grid step drops below the antenna's\n"
      "intrinsic accuracy (~1.5 deg); compute grows linearly with grid points.\n");
  return 0;
}
