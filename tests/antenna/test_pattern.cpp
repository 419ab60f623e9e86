#include "src/antenna/pattern.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "src/antenna/codebook.hpp"
#include "src/common/error.hpp"

namespace talon {
namespace {

AngularGrid small_grid() {
  return AngularGrid{make_axis(-10.0, 10.0, 10.0), make_axis(0.0, 10.0, 10.0)};
}

Grid2D constant_pattern(const AngularGrid& grid, double value) {
  Grid2D g(grid, value);
  return g;
}

TEST(PatternTable, AddAndLookup) {
  PatternTable table;
  EXPECT_TRUE(table.empty());
  table.add(3, constant_pattern(small_grid(), 1.0));
  table.add(1, constant_pattern(small_grid(), 2.0));
  EXPECT_EQ(table.size(), 2u);
  EXPECT_TRUE(table.contains(3));
  EXPECT_FALSE(table.contains(2));
  EXPECT_EQ(table.ids(), (std::vector<int>{1, 3}));
  EXPECT_DOUBLE_EQ(table.sample_db(1, {0.0, 0.0}), 2.0);
}

TEST(PatternTable, RejectsDuplicateAdd) {
  PatternTable table;
  table.add(1, constant_pattern(small_grid(), 0.0));
  EXPECT_THROW(table.add(1, constant_pattern(small_grid(), 0.0)), PreconditionError);
}

TEST(PatternTable, RejectsMismatchedGrid) {
  PatternTable table;
  table.add(1, constant_pattern(small_grid(), 0.0));
  const AngularGrid other{make_axis(-20.0, 20.0, 10.0), make_axis(0.0, 10.0, 10.0)};
  EXPECT_THROW(table.add(2, constant_pattern(other, 0.0)), PreconditionError);
}

TEST(PatternTable, RejectsSectorIdsOutsideTheSixBitField) {
  // 802.11ad carries a Sector ID in 6 bits: [0, kMaxSectorId].
  PatternTable table;
  for (const int bad : {-1, kMaxSectorId + 1, 99, std::numeric_limits<int>::min(),
                        std::numeric_limits<int>::max()}) {
    EXPECT_THROW(table.add(bad, constant_pattern(small_grid(), 0.0)), PreconditionError)
        << bad;
  }
  EXPECT_TRUE(table.empty());
  table.add(0, constant_pattern(small_grid(), 0.0));
  table.add(kMaxSectorId, constant_pattern(small_grid(), 0.0));
  EXPECT_EQ(table.ids(), (std::vector<int>{0, kMaxSectorId}));
}

TEST(PatternTable, LookupsAcrossTheIdRange) {
  // pattern() and contains() binary-search the sorted entries: every
  // present ID is found with its own pattern, every absent one is not.
  PatternTable table;
  const std::vector<int> ids{0, 1, 2, 13, 31, 32, 61, 62, 63};
  for (auto it = ids.rbegin(); it != ids.rend(); ++it) {
    table.add(*it, constant_pattern(small_grid(), static_cast<double>(*it)));
  }
  EXPECT_EQ(table.ids(), ids);
  for (int id = -2; id <= kMaxSectorId + 2; ++id) {
    const bool present = std::find(ids.begin(), ids.end(), id) != ids.end();
    EXPECT_EQ(table.contains(id), present) << id;
    if (present) {
      EXPECT_EQ(table.sample_db(id, {0.0, 0.0}), static_cast<double>(id));
    } else {
      EXPECT_THROW(table.pattern(id), PreconditionError) << id;
    }
  }
}

TEST(PatternTable, UnknownSectorThrows) {
  PatternTable table;
  table.add(1, constant_pattern(small_grid(), 0.0));
  EXPECT_THROW(table.pattern(9), PreconditionError);
}

TEST(PatternTable, BestSectorAtPicksStrongest) {
  PatternTable table;
  Grid2D left(small_grid(), -5.0);
  left.set(0, 0, 10.0);  // strong at az -10
  Grid2D right(small_grid(), -5.0);
  right.set(2, 0, 12.0);  // strong at az +10
  table.add(7, left);
  table.add(9, right);
  EXPECT_EQ(table.best_sector_at({-10.0, 0.0}), 7);
  EXPECT_EQ(table.best_sector_at({10.0, 0.0}), 9);
}

TEST(PatternTable, BestSectorRestrictedToCandidates) {
  PatternTable table;
  Grid2D strong(small_grid(), 10.0);
  Grid2D weak(small_grid(), 0.0);
  table.add(1, strong);
  table.add(2, weak);
  const std::vector<int> only_weak{2};
  EXPECT_EQ(table.best_sector_at({0.0, 0.0}, only_weak), 2);
}

TEST(PatternTable, BestSectorEmptyCandidatesThrows) {
  PatternTable table;
  table.add(1, constant_pattern(small_grid(), 0.0));
  const std::vector<int> none;
  EXPECT_THROW(table.best_sector_at({0.0, 0.0}, none), PreconditionError);
}

TEST(PatternTable, CsvRoundTrip) {
  PatternTable table;
  Grid2D a(small_grid(), 0.0);
  a.set(1, 1, 4.25);
  Grid2D b(small_grid(), -7.0);
  b.set(2, 0, 11.75);
  table.add(5, a);
  table.add(63, b);

  const CsvTable csv = table.to_csv();
  EXPECT_EQ(csv.header.size(), 4u);
  EXPECT_EQ(csv.rows.size(), 2u * small_grid().size());

  const PatternTable back = PatternTable::from_csv(csv);
  EXPECT_EQ(back.ids(), table.ids());
  EXPECT_EQ(back.grid(), table.grid());
  EXPECT_DOUBLE_EQ(back.sample_db(5, {0.0, 10.0}), 4.25);
  EXPECT_DOUBLE_EQ(back.sample_db(63, {10.0, 0.0}), 11.75);
}

TEST(PatternTable, FromCsvGroupsInterleavedRows) {
  // Rows of several sectors, interleaved and in reverse grid order, parse
  // to the same table as the sector-by-sector layout to_csv() writes.
  PatternTable table;
  for (int id : {9, 2, 40}) {
    Grid2D g(small_grid(), 0.0);
    for (std::size_t i = 0; i < g.values().size(); ++i) {
      g.set(i % 3, i / 3, static_cast<double>(id) + 0.25 * static_cast<double>(i));
    }
    table.add(id, std::move(g));
  }
  const CsvTable csv = table.to_csv();
  const std::size_t cells = small_grid().size();
  CsvTable interleaved{csv.header, {}};
  for (std::size_t c = cells; c-- > 0;) {
    for (std::size_t s = 0; s < 3; ++s) interleaved.rows.push_back(csv.rows[s * cells + c]);
  }
  const PatternTable back = PatternTable::from_csv(interleaved);
  ASSERT_EQ(back.ids(), table.ids());
  for (int id : table.ids()) {
    EXPECT_EQ(back.pattern(id).values(), table.pattern(id).values()) << id;
  }
}

TEST(PatternTable, FromCsvRejectsIncompleteGrid) {
  PatternTable table;
  table.add(1, constant_pattern(small_grid(), 1.0));
  CsvTable csv = table.to_csv();
  csv.rows.pop_back();  // drop one grid cell
  EXPECT_THROW(PatternTable::from_csv(csv), ParseError);
}

/// The ParseError message from_csv() throws for `csv` (empty if none).
std::string from_csv_error(const CsvTable& csv) {
  try {
    PatternTable::from_csv(csv);
  } catch (const ParseError& e) {
    return e.what();
  }
  return {};
}

CsvTable two_sector_csv() {
  PatternTable table;
  table.add(1, constant_pattern(small_grid(), 1.0));
  table.add(2, constant_pattern(small_grid(), 2.0));
  return table.to_csv();
}

TEST(PatternTable, FromCsvRejectsInfiniteValue) {
  for (double bad : {std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    CsvTable csv = two_sector_csv();
    csv.rows[3][3] = bad;
    EXPECT_NE(from_csv_error(csv).find("value_db is not finite"), std::string::npos)
        << bad;
  }
}

TEST(PatternTable, FromCsvRejectsValuesBeyondTheDbEnvelope) {
  // 4000 dB is finite, but its linear power is not: the correlation math
  // would see inf and its surfaces NaN. The envelope itself still parses.
  for (double bad : {4000.0, -4000.0, 1000.5}) {
    CsvTable csv = two_sector_csv();
    csv.rows[3][3] = bad;
    EXPECT_NE(from_csv_error(csv).find("row 3: value_db is beyond +-1000 dB"),
              std::string::npos)
        << bad;
  }
  CsvTable csv = two_sector_csv();
  csv.rows[3][3] = 1000.0;
  csv.rows[4][3] = -1000.0;
  EXPECT_EQ(from_csv_error(csv), "");
}

TEST(PatternTable, FromCsvRejectsDuplicateCell) {
  CsvTable csv = two_sector_csv();
  std::vector<double> again = csv.rows[4];
  again[3] = 9.0;  // a second, different value for the same cell
  csv.rows.push_back(again);
  EXPECT_NE(from_csv_error(csv).find("duplicate row for sector 1"), std::string::npos);
}

TEST(PatternTable, FromCsvRejectsNonIntegralSectorId) {
  CsvTable csv = two_sector_csv();
  csv.rows[2][0] = 1.4;  // would round onto sector 1
  EXPECT_NE(from_csv_error(csv).find("sector_id is not an integer"), std::string::npos);
}

TEST(PatternTable, FromCsvRejectsSectorIdsOutsideTheSixBitField) {
  for (const double bad : {64.0, -1.0, 1e12}) {
    CsvTable csv = two_sector_csv();
    for (std::size_t r = 2; r < csv.rows.size(); ++r) {
      if (csv.rows[r][0] == 2.0) csv.rows[r][0] = bad;  // move sector 2 wholesale
    }
    const std::string error = from_csv_error(csv);
    char shown[32];
    std::snprintf(shown, sizeof shown, "%g", bad);
    EXPECT_NE(error.find("sector_id " + std::string(shown) + " is outside [0, 63]"),
              std::string::npos)
        << error;
    EXPECT_NE(error.find("row " + std::to_string(small_grid().size())), std::string::npos)
        << error;
  }
  CsvTable csv = two_sector_csv();
  for (auto& row : csv.rows) row[0] = row[0] == 1.0 ? 0.0 : 63.0;
  EXPECT_EQ(from_csv_error(csv), "");
}

TEST(PatternTable, FromCsvRejectsEmpty) {
  CsvTable csv;
  csv.header = {"sector_id", "azimuth_deg", "elevation_deg", "value_db"};
  EXPECT_THROW(PatternTable::from_csv(csv), ParseError);
}

TEST(PatternTableGainSource, AdaptsSampleDb) {
  PatternTable table;
  Grid2D g(small_grid(), 1.0);
  g.set(1, 0, 6.0);
  table.add(4, g);
  const PatternTableGainSource source(table);
  EXPECT_DOUBLE_EQ(source.gain_dbi(4, {0.0, 0.0}), 6.0);
  EXPECT_DOUBLE_EQ(source.gain_dbi(4, {-10.0, 10.0}), 1.0);
}

}  // namespace
}  // namespace talon
