// Shared infrastructure for the reproduction benches: the measured pattern
// table every experiment consumes, and small printing helpers. Every bench
// binary regenerates one table or figure of the paper; see DESIGN.md for
// the experiment index.
#pragma once

#include <cstdint>
#include <string>

#include "src/antenna/pattern.hpp"
#include "src/common/stats.hpp"
#include "src/sim/experiment.hpp"

namespace talon::bench {

/// The device seed used for the DUT across all benches, so the pattern
/// table matches the device under test in every venue.
inline constexpr std::uint64_t kDutSeed = 42;

/// Resolution of the pattern campaign / analyses.
enum class Fidelity {
  kQuick,  ///< default: coarser grids, minutes -> seconds
  kFull,   ///< the paper's resolutions (0.9/1.8 deg steps); slower
};

/// Execution options shared by every bench driver.
struct RunOptions {
  Fidelity fidelity{Fidelity::kQuick};
  /// Resolved worker thread count (>= 1). Parsing installs a given
  /// --threads N as the process-wide executor override, so replay calls
  /// pick it up without explicit plumbing.
  int threads{1};
};

/// Parse --full and --threads N from argv (strict: unknown options throw).
RunOptions run_options_from_args(int argc, char** argv);

/// Run the Sec. 4.5 anechoic campaign for the standard DUT and return the
/// measured 3-D pattern table (az +-90, el 0..32.4). The table is moved
/// out of the campaign result -- never copied.
PatternTable standard_pattern_table(Fidelity fidelity);

/// Banner printed by every bench.
void print_header(const std::string& experiment, const std::string& paper_ref,
                  Fidelity fidelity);

/// One row of a Fig. 7 style box-stat table.
void print_box_row(std::size_t probes, const BoxStats& azimuth,
                   const BoxStats& elevation, std::size_t samples);

}  // namespace talon::bench
