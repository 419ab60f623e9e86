// Measured sector-pattern tables.
//
// The output of the Sec. 4 measurement campaign and the main data structure
// the CSS algorithm consumes: for every sector, measured response (SNR dB)
// on a regular azimuth x elevation grid. All patterns in one table share the
// same grid. Persistence matches the paper's published data release: one
// long CSV of (sector_id, azimuth, elevation, value) rows.
#pragma once

#include <span>
#include <vector>

#include "src/antenna/gain_source.hpp"
#include "src/common/csv.hpp"
#include "src/common/grid.hpp"

namespace talon {

class PatternTable {
 public:
  PatternTable() = default;

  /// Add a sector's measured pattern. The first add fixes the table grid;
  /// later adds must use the same grid. Re-adding an ID is an error, and so
  /// is an ID outside the 6-bit Sector ID field's [0, kMaxSectorId]
  /// (antenna/codebook.hpp): every table holds at most 64 sectors, which
  /// lets the response matrix find a sector's slot with one table load.
  void add(int sector_id, Grid2D pattern_db);

  bool empty() const { return patterns_.empty(); }
  std::size_t size() const { return patterns_.size(); }
  bool contains(int sector_id) const;

  /// Sector IDs in ascending order.
  std::vector<int> ids() const;

  /// The shared angular grid. Table must be non-empty.
  const AngularGrid& grid() const;

  /// Binary search over the sorted entries. Throws if absent.
  const Grid2D& pattern(int sector_id) const;

  /// Bilinear-interpolated response of a sector toward `dir` [dB].
  double sample_db(int sector_id, const Direction& dir) const;

  /// Eq. 4 at an arbitrary direction: the sector among `candidates` with
  /// the strongest measured gain toward `dir`, the first in `candidates`
  /// order on ties. Throws PreconditionError for an empty set or an ID the
  /// table lacks. Selections at a search-grid point read the response
  /// matrix's per-point ranking instead (ResponseMatrix::best_sector_at),
  /// which returns the same ID without interpolating; this one serves
  /// off-grid directions such as a tracker's smoothed estimate.
  int best_sector_at(const Direction& dir, std::span<const int> candidates) const;

  /// Same over all sectors in the table.
  int best_sector_at(const Direction& dir) const;

  /// Serialize to (sector_id, azimuth_deg, elevation_deg, value_db) rows.
  CsvTable to_csv() const;

  /// Parse from to_csv() output; validates that every sector covers the
  /// same complete grid exactly once, with integral sector IDs in
  /// [0, kMaxSectorId] and finite values within kDbEnvelope
  /// (common/units.hpp). Throws ParseError naming the first violation.
  static PatternTable from_csv(const CsvTable& table);

 private:
  struct Entry {
    int id;
    Grid2D pattern;
  };
  /// First entry whose ID is not below `sector_id`.
  std::vector<Entry>::const_iterator lower_bound(int sector_id) const;

  std::vector<Entry> patterns_;  // sorted by id
};

/// Adapt a measured PatternTable to the GainSource interface so it can be
/// compared against (or substituted for) the physical array model.
class PatternTableGainSource final : public GainSource {
 public:
  explicit PatternTableGainSource(const PatternTable& table) : table_(&table) {}

  double gain_dbi(int sector_id, const Direction& dir) const override {
    return table_->sample_db(sector_id, dir);
  }

 private:
  const PatternTable* table_;
};

}  // namespace talon
