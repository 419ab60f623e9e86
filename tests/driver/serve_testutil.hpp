// Shared helpers for the serving-layer tests: synthetic assets built on
// the core test table, deterministic per-(link, round) sweep-report
// synthesis -- independent of submission order and thread count, exactly
// like the serving layer itself requires -- and golden-file loading.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/core/pattern_assets.hpp"
#include "src/phy/measurement.hpp"
#include "tests/core/synthetic_table.hpp"

#ifndef TALON_REPO_DIR
#error "TALON_REPO_DIR must point at the repository root (set by CMake)"
#endif

namespace talon::testutil {

/// Contents of a committed golden file, by repository-relative path;
/// empty (and the calling test fails) when the file is missing.
inline std::string read_golden(const std::string& relative) {
  const std::string path = std::string(TALON_REPO_DIR) + "/" + relative;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Synthetic table with every lobe's peak shifted by `peak_delta_db`:
/// structurally identical to synthetic_table() but a DIFFERENT codebook
/// (different fingerprint) -- the hot-swap tests' "recalibrated" table.
inline PatternTable shifted_table(double peak_delta_db) {
  const AngularGrid grid = synthetic_grid();
  PatternTable base = synthetic_table();
  PatternTable out;
  for (int id : base.ids()) {
    Grid2D pattern = base.pattern(id);
    for (std::size_t ie = 0; ie < grid.elevation.count; ++ie) {
      for (std::size_t ia = 0; ia < grid.azimuth.count; ++ia) {
        pattern.set(ia, ie, pattern.at(ia, ie) + peak_delta_db);
      }
    }
    out.add(id, std::move(pattern));
  }
  return out;
}

/// Synthetic table with every lobe mirrored in azimuth: the same sector
/// IDs with different lobe shapes. Unlike shifted_table(), whose uniform
/// dB offset leaves normalized Eq. 5 and Eq. 4 unchanged, this moves
/// every estimate and selection.
inline PatternTable mirrored_table() {
  const AngularGrid grid = synthetic_grid();
  PatternTable base = synthetic_table();
  PatternTable out;
  for (int id : base.ids()) {
    const Grid2D& lobe = base.pattern(id);
    Grid2D pattern(grid);
    for (std::size_t ie = 0; ie < grid.elevation.count; ++ie) {
      for (std::size_t ia = 0; ia < grid.azimuth.count; ++ia) {
        pattern.set(ia, ie, lobe.at(grid.azimuth.count - 1 - ia, ie));
      }
    }
    out.add(id, std::move(pattern));
  }
  return out;
}

inline std::shared_ptr<const PatternAssets> make_serve_assets(
    double peak_delta_db = 0.0) {
  return std::make_shared<const PatternAssets>(
      peak_delta_db == 0.0 ? synthetic_table() : shifted_table(peak_delta_db),
      synthetic_grid(), CorrelationDomain::kLinear);
}

/// Deterministic sweep report for (seed, link, round): a random 6-sector
/// subset probed toward a random truth direction with mild noise. Depends
/// only on its own coordinates (streams::kServeReport substream).
inline std::vector<SectorReading> make_report(std::uint64_t seed, int link,
                                              std::uint64_t round,
                                              const PatternTable& table) {
  Rng rng(substream_seed(seed, streams::kServeReport,
                         static_cast<std::uint64_t>(link), round));
  const std::vector<int> ids = table.ids();
  const int k = 6;
  const std::vector<int> picks =
      rng.sample_without_replacement(static_cast<int>(ids.size()), k);
  const Direction truth{rng.uniform(-55.0, 55.0), rng.uniform(0.0, 25.0)};
  std::vector<SectorReading> out;
  out.reserve(picks.size());
  for (int i : picks) {
    const int id = ids[static_cast<std::size_t>(i)];
    const double v = table.sample_db(id, truth) + rng.normal(0.3);
    out.push_back(SectorReading{.sector_id = id, .snr_db = v, .rssi_dbm = v});
  }
  return out;
}

}  // namespace talon::testutil
