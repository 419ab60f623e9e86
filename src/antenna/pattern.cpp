#include "src/antenna/pattern.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>

#include "src/antenna/codebook.hpp"
#include "src/common/error.hpp"
#include "src/common/units.hpp"

namespace talon {

void PatternTable::add(int sector_id, Grid2D pattern_db) {
  TALON_EXPECTS(sector_id >= 0 && sector_id <= kMaxSectorId);
  TALON_EXPECTS(!contains(sector_id));
  if (!patterns_.empty()) {
    TALON_EXPECTS(pattern_db.grid() == grid());
  }
  patterns_.insert(lower_bound(sector_id), Entry{sector_id, std::move(pattern_db)});
}

std::vector<PatternTable::Entry>::const_iterator PatternTable::lower_bound(
    int sector_id) const {
  return std::lower_bound(patterns_.begin(), patterns_.end(), sector_id,
                          [](const Entry& e, int id) { return e.id < id; });
}

bool PatternTable::contains(int sector_id) const {
  const auto it = lower_bound(sector_id);
  return it != patterns_.end() && it->id == sector_id;
}

std::vector<int> PatternTable::ids() const {
  std::vector<int> out;
  out.reserve(patterns_.size());
  for (const Entry& e : patterns_) out.push_back(e.id);
  return out;
}

const AngularGrid& PatternTable::grid() const {
  TALON_EXPECTS(!patterns_.empty());
  return patterns_.front().pattern.grid();
}

const Grid2D& PatternTable::pattern(int sector_id) const {
  const auto it = lower_bound(sector_id);
  TALON_EXPECTS(it != patterns_.end() && it->id == sector_id);
  return it->pattern;
}

double PatternTable::sample_db(int sector_id, const Direction& dir) const {
  return pattern(sector_id).sample(dir);
}

int PatternTable::best_sector_at(const Direction& dir,
                                 std::span<const int> candidates) const {
  TALON_EXPECTS(!candidates.empty());
  int best_id = -1;
  double best_gain = -std::numeric_limits<double>::infinity();
  for (int id : candidates) {
    const double g = sample_db(id, dir);
    if (g > best_gain) {
      best_gain = g;
      best_id = id;
    }
  }
  return best_id;
}

int PatternTable::best_sector_at(const Direction& dir) const {
  const auto all = ids();
  return best_sector_at(dir, all);
}

CsvTable PatternTable::to_csv() const {
  CsvTable out;
  out.header = {"sector_id", "azimuth_deg", "elevation_deg", "value_db"};
  for (const Entry& e : patterns_) {
    const AngularGrid& g = e.pattern.grid();
    for (std::size_t ie = 0; ie < g.elevation.count; ++ie) {
      for (std::size_t ia = 0; ia < g.azimuth.count; ++ia) {
        const Direction d = g.direction(ia, ie);
        out.rows.push_back({static_cast<double>(e.id), d.azimuth_deg,
                            d.elevation_deg, e.pattern.at(ia, ie)});
      }
    }
  }
  return out;
}

PatternTable PatternTable::from_csv(const CsvTable& table) {
  const std::size_t col_id = table.column("sector_id");
  const std::size_t col_az = table.column("azimuth_deg");
  const std::size_t col_el = table.column("elevation_deg");
  const std::size_t col_val = table.column("value_db");
  if (table.rows.empty()) throw ParseError("pattern csv: no data rows");

  // Per-row checks, then reconstruct the grid from the distinct sorted
  // azimuth/elevation values.
  std::vector<double> azs;
  std::vector<double> els;
  for (std::size_t r = 0; r < table.rows.size(); ++r) {
    const auto& row = table.rows[r];
    const double id = row[col_id];
    if (!(std::trunc(id) == id)) {
      throw ParseError("pattern csv: row " + std::to_string(r) +
                       ": sector_id is not an integer");
    }
    if (!(id >= 0.0 && id <= kMaxSectorId)) {
      char shown[32];
      std::snprintf(shown, sizeof shown, "%g", id);
      throw ParseError("pattern csv: row " + std::to_string(r) + ": sector_id " + shown +
                       " is outside [0, " + std::to_string(kMaxSectorId) + "]");
    }
    if (!std::isfinite(row[col_val])) {
      throw ParseError("pattern csv: row " + std::to_string(r) +
                       ": value_db is not finite");
    }
    if (std::fabs(row[col_val]) > kDbEnvelope) {
      throw ParseError("pattern csv: row " + std::to_string(r) +
                       ": value_db is beyond +-" +
                       std::to_string(static_cast<int>(kDbEnvelope)) + " dB");
    }
    azs.push_back(row[col_az]);
    els.push_back(row[col_el]);
  }
  const auto unique_sorted = [](std::vector<double>& v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end(),
                        [](double a, double b) { return std::fabs(a - b) < 1e-9; }),
            v.end());
  };
  unique_sorted(azs);
  unique_sorted(els);
  const auto axis_of = [](const std::vector<double>& v) {
    if (v.size() == 1) return Axis{.first = v.front(), .step = 1.0, .count = 1};
    const double step = (v.back() - v.front()) / static_cast<double>(v.size() - 1);
    for (std::size_t i = 0; i + 1 < v.size(); ++i) {
      if (std::fabs((v[i + 1] - v[i]) - step) > 1e-6) {
        throw ParseError("pattern csv: irregular grid");
      }
    }
    return Axis{.first = v.front(), .step = step, .count = v.size()};
  };
  const AngularGrid grid{.azimuth = axis_of(azs), .elevation = axis_of(els)};

  // Fill every sector's grid in one pass over the rows, through an
  // ID -> slot table (IDs were checked against [0, kMaxSectorId] above);
  // sectors keep their first-seen order.
  std::array<int, kMaxSectorId + 1> slot_of;
  slot_of.fill(-1);
  std::vector<std::pair<int, Grid2D>> sectors;
  for (const auto& row : table.rows) {
    const int id = static_cast<int>(row[col_id]);
    int& slot = slot_of[static_cast<std::size_t>(id)];
    if (slot < 0) {
      slot = static_cast<int>(sectors.size());
      sectors.emplace_back(id, Grid2D(grid, std::numeric_limits<double>::quiet_NaN()));
    }
    Grid2D& pattern = sectors[static_cast<std::size_t>(slot)].second;
    const std::size_t ia = grid.azimuth.nearest_index(row[col_az]);
    const std::size_t ie = grid.elevation.nearest_index(row[col_el]);
    // Every value is finite, so a non-NaN cell was already filled.
    if (!std::isnan(pattern.at(ia, ie))) {
      throw ParseError("pattern csv: duplicate row for sector " +
                       std::to_string(id) + " at azimuth " +
                       std::to_string(row[col_az]) + ", elevation " +
                       std::to_string(row[col_el]));
    }
    pattern.set(ia, ie, row[col_val]);
  }
  PatternTable out;
  for (auto& [id, pattern] : sectors) {
    for (double v : pattern.values()) {
      if (std::isnan(v)) {
        throw ParseError("pattern csv: incomplete grid for sector " + std::to_string(id));
      }
    }
    out.add(id, std::move(pattern));
  }
  return out;
}

}  // namespace talon
