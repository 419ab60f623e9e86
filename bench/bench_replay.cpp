// Replay-engine benchmark: wall-clock of the Fig. 7/8/9 offline analyses
// under the parallel executor, each cell's sweeps resolved in one batched
// branch-and-bound walk.
//
// Runs one conference-room recording, then replays the estimation-error
// and selection-quality analyses serially and at 2/4/8 threads plus the
// resolved --threads, and verifies that every mode produces bit-identical
// rows. The timings feed BENCH_replay.json.
#include <chrono>
#include <cstdio>

#include "bench/common.hpp"
#include "src/common/parallel.hpp"
#include "src/core/subset_policy.hpp"

using namespace talon;

namespace {

struct ModeResult {
  double seconds{0.0};
  std::vector<EstimationErrorRow> error_rows;
  std::vector<SelectionQualityRow> quality_rows;
};

bool rows_identical(const ModeResult& a, const ModeResult& b) {
  if (a.error_rows.size() != b.error_rows.size() ||
      a.quality_rows.size() != b.quality_rows.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.error_rows.size(); ++i) {
    const EstimationErrorRow& x = a.error_rows[i];
    const EstimationErrorRow& y = b.error_rows[i];
    if (x.samples != y.samples ||
        x.azimuth_error.median != y.azimuth_error.median ||
        x.azimuth_error.q25 != y.azimuth_error.q25 ||
        x.azimuth_error.q75 != y.azimuth_error.q75 ||
        x.azimuth_error.whisker_high != y.azimuth_error.whisker_high ||
        x.elevation_error.median != y.elevation_error.median) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.quality_rows.size(); ++i) {
    const SelectionQualityRow& x = a.quality_rows[i];
    const SelectionQualityRow& y = b.quality_rows[i];
    if (x.css_stability != y.css_stability || x.ssw_stability != y.ssw_stability ||
        x.css_snr_loss_db != y.css_snr_loss_db ||
        x.ssw_snr_loss_db != y.ssw_snr_loss_db) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const auto run = bench::run_options_from_args(argc, argv);
  bench::print_header("Replay engine: batched walk + parallel executor",
                      "Figs. 7-9 replay wall-clock", run.fidelity);

  const PatternTable table = bench::standard_pattern_table(run.fidelity);
  RandomSubsetPolicy policy;

  Scenario conference = make_conference_scenario(bench::kDutSeed);
  RecordingConfig rec;
  const double az_step = run.fidelity == bench::Fidelity::kFull ? 2.5 : 7.5;
  for (double az = -60.0; az <= 60.0 + 1e-9; az += az_step) {
    rec.head_azimuths_deg.push_back(az);
  }
  rec.sweeps_per_pose = run.fidelity == bench::Fidelity::kFull ? 30 : 15;
  rec.seed = 7001;
  const auto records = record_sweeps(conference, rec);

  std::vector<std::size_t> probe_counts;
  for (std::size_t m = 4; m <= 34; m += 2) probe_counts.push_back(m);

  struct Mode {
    const char* label;
    ReplayOptions options;
  };
  std::vector<Mode> modes{
      {"serial          ", ReplayOptions{.threads = 1}},
      {"2 threads       ", ReplayOptions{.threads = 2}},
      {"4 threads       ", ReplayOptions{.threads = 4}},
      {"8 threads       ", ReplayOptions{.threads = 8}},
  };
  if (run.threads > 1 && run.threads != 2 && run.threads != 4 && run.threads != 8) {
    modes.push_back(Mode{"--threads       ", ReplayOptions{.threads = run.threads}});
  }

  std::printf("%zu records, %zu poses x %zu probe counts; per-mode wall-clock:\n\n",
              records.size(), rec.head_azimuths_deg.size(), probe_counts.size());
  std::printf("mode             | total [s] | speedup vs serial\n");
  std::printf("-----------------+-----------+------------------\n");

  std::vector<ModeResult> results(modes.size());
  for (std::size_t i = 0; i < modes.size(); ++i) {
    // Fresh selector per mode: every mode pays its own norm-cache misses
    // instead of inheriting a warm cache from the mode before it.
    const CompressiveSectorSelector css(table);
    CssSelector selector(css);
    const auto start = std::chrono::steady_clock::now();
    results[i].error_rows = estimation_error_analysis(records, selector, probe_counts,
                                                      policy, 7100, modes[i].options);
    results[i].quality_rows = selection_quality_analysis(
        records, selector, probe_counts, policy, 7200, modes[i].options);
    const auto end = std::chrono::steady_clock::now();
    results[i].seconds = std::chrono::duration<double>(end - start).count();
    std::printf("%s | %8.3f  | %.2fx\n", modes[i].label, results[i].seconds,
                results[0].seconds / results[i].seconds);
  }

  bool identical = true;
  for (std::size_t i = 1; i < results.size(); ++i) {
    identical = identical && rows_identical(results[0], results[i]);
  }
  std::printf("\nall modes produce bit-identical rows: %s\n",
              identical ? "yes" : "NO -- DETERMINISM BUG");
  return identical ? 0 : 1;
}
