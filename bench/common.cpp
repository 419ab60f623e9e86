#include "bench/common.hpp"

#include <cstdio>

#include "src/common/args.hpp"
#include "src/common/parallel.hpp"
#include "src/measure/campaign.hpp"
#include "src/sim/scenario.hpp"

namespace talon::bench {

RunOptions run_options_from_args(int argc, char** argv) {
  ArgParser args;
  args.add_flag("--full");
  args.add_option("--threads");
  args.parse(argc - 1, argv + 1);
  RunOptions run;
  run.fidelity = args.has_flag("--full") ? Fidelity::kFull : Fidelity::kQuick;
  run.threads = apply_thread_count_option(args);
  return run;
}

PatternTable standard_pattern_table(Fidelity fidelity) {
  Scenario chamber = make_anechoic_scenario(kDutSeed);
  CampaignConfig config;
  if (fidelity == Fidelity::kFull) {
    // Sec. 4.5: "limited the azimuth angle to +-90 and performed SNR
    // measurements every 1.8 deg ... tilted the rotation head from 0 to
    // 32.4 deg in steps of 3.6 deg".
    config.azimuth = make_axis(-90.0, 90.0, 1.8);
    config.elevation = make_axis(0.0, 32.4, 3.6);
    config.repetitions = 3;
  } else {
    config.azimuth = make_axis(-90.0, 90.0, 3.6);
    config.elevation = make_axis(0.0, 32.4, 5.4);
    config.repetitions = 3;
  }
  return measure_sector_patterns(chamber, config).take_table();
}

void print_header(const std::string& experiment, const std::string& paper_ref,
                  Fidelity fidelity) {
  std::printf("================================================================\n");
  std::printf("%s  (%s)\n", experiment.c_str(), paper_ref.c_str());
  std::printf("fidelity: %s   (pass --full for the paper's resolutions)\n",
              fidelity == Fidelity::kFull ? "full" : "quick");
  std::printf("threads: %d   (--threads N or TALON_THREADS to change)\n",
              default_thread_count());
  std::printf("================================================================\n");
}

void print_box_row(std::size_t probes, const BoxStats& azimuth,
                   const BoxStats& elevation, std::size_t samples) {
  std::printf(
      "%6zu | %6.2f %6.2f %6.2f %7.2f | %6.2f %6.2f %6.2f %7.2f | %6zu\n",
      probes, azimuth.median, azimuth.q25, azimuth.q75, azimuth.whisker_high,
      elevation.median, elevation.q25, elevation.q75, elevation.whisker_high,
      samples);
}

}  // namespace talon::bench
