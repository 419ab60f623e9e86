#include "src/core/response_matrix.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>

#include "src/common/error.hpp"
#include "src/common/units.hpp"
#include "src/core/tile_dots.hpp"

namespace talon {

namespace {

/// Every flat grid index, ordered into elevation bands of about
/// `band_rows` rows, column by column within a band (rows ascending),
/// alternate bands right to left.
std::vector<std::uint32_t> band_order(std::size_t n_az, std::size_t n_el,
                                      std::size_t band_rows) {
  const std::size_t bands = std::max<std::size_t>(1, (n_el + band_rows / 2) / band_rows);
  std::vector<std::uint32_t> order;
  order.reserve(n_az * n_el);
  for (std::size_t band = 0; band < bands; ++band) {
    // Rows ie with ie * bands / n_el == band.
    const std::size_t ie0 = (band * n_el + bands - 1) / bands;
    const std::size_t ie1 = ((band + 1) * n_el + bands - 1) / bands;
    for (std::size_t c = 0; c < n_az; ++c) {
      const std::size_t ia = band % 2 == 0 ? c : n_az - 1 - c;
      for (std::size_t ie = ie0; ie < ie1; ++ie) {
        order.push_back(static_cast<std::uint32_t>(ie * n_az + ia));
      }
    }
  }
  return order;
}

}  // namespace

TileMap::TileMap(const AngularGrid& grid) {
  constexpr std::size_t kTile = SubsetPanel::kTilePoints;
  constexpr std::size_t kCoarse = kTile * SubsetPanel::kFinePerCoarse;
  const std::size_t n_az = grid.azimuth.count;
  const std::size_t n_el = grid.elevation.count;
  const std::size_t points = grid.size();
  TALON_EXPECTS(points <= std::numeric_limits<std::uint32_t>::max());
  // Cut the coarse-band order into coarse runs, then lay each run's
  // points out in fine-band order: walking the whole fine-band order once
  // and appending every point to its run keeps both passes linear.
  const std::vector<std::uint32_t> coarse_order = band_order(n_az, n_el, kCoarseBandRows);
  std::vector<std::uint32_t> run_of(points);  // coarse run of each flat index
  for (std::size_t i = 0; i < points; ++i) {
    run_of[coarse_order[i]] = static_cast<std::uint32_t>(i / kCoarse);
  }
  std::vector<std::size_t> cursor((points + kCoarse - 1) / kCoarse);
  for (std::size_t r = 0; r < cursor.size(); ++r) cursor[r] = r * kCoarse;
  point.resize(points);
  for (const std::uint32_t g : band_order(n_az, n_el, kFineBandRows)) {
    point[cursor[run_of[g]]++] = g;
  }

  fine_tiles = (points + kTile - 1) / kTile;
  coarse_tiles = (fine_tiles + SubsetPanel::kFinePerCoarse - 1) / SubsetPanel::kFinePerCoarse;
  column.resize(points);
  tile_slot.resize(points);
  fine_min.assign(fine_tiles, std::numeric_limits<std::uint32_t>::max());
  coarse_min.assign(coarse_tiles, std::numeric_limits<std::uint32_t>::max());
  for (std::size_t i = 0; i < points; ++i) {
    column[i] = static_cast<std::uint32_t>(point[i] % n_az);
    tile_slot[point[i]] = static_cast<std::uint32_t>(i);
    std::uint32_t& fine = fine_min[i / kTile];
    fine = std::min(fine, point[i]);
    std::uint32_t& coarse = coarse_min[i / kCoarse];
    coarse = std::min(coarse, point[i]);
  }
}

ResponseMatrix::ResponseMatrix(const PatternTable& patterns, AngularGrid grid,
                               CorrelationDomain domain)
    : grid_(grid), domain_(domain), tiles_(grid_) {
  TALON_EXPECTS(!patterns.empty());
  sector_ids_ = patterns.ids();
  const std::size_t points = grid_.size();
  const std::size_t slots = sector_ids_.size();

  slot_of_id_.fill(-1);
  std::vector<const Grid2D*> sources;
  sources.reserve(slots);
  for (std::size_t s = 0; s < slots; ++s) {
    // PatternTable::add keeps every ID in [0, kMaxSectorId].
    slot_of_id_[static_cast<std::size_t>(sector_ids_[s])] = static_cast<std::int8_t>(s);
    sources.push_back(&patterns.pattern(sector_ids_[s]));
  }

  directions_.reserve(points);
  for (std::size_t ie = 0; ie < grid_.elevation.count; ++ie) {
    for (std::size_t ia = 0; ia < grid_.azimuth.count; ++ia) {
      directions_.push_back(grid_.direction(ia, ie));
    }
  }

  constexpr std::size_t kTile = SubsetPanel::kTilePoints;
  values_.assign(tiles_.fine_tiles * slots * kTile, 0.0);
  // The allocator promises the base pointer; the static_assert in the
  // header promises every row offset is a multiple of the alignment.
  assert(reinterpret_cast<std::uintptr_t>(values_.data()) % kValuesAlignment == 0);
  ranking_.resize(points * slots);
  std::vector<double> db(slots);
  // Neighbouring points rank their sectors almost alike, so each point's
  // ranking starts from the previous one's and an insertion sort fixes
  // the few sectors that changed places. Order within a run of equal
  // gains is immaterial: best_sector_at resolves ties by candidate order.
  std::vector<std::uint8_t> order(slots);
  std::iota(order.begin(), order.end(), std::uint8_t{0});
  for (std::size_t g = 0; g < points; ++g) {
    const std::size_t i = tiles_.tile_slot[g];
    for (std::size_t s = 0; s < slots; ++s) {
      // PatternTable::sample_db's arithmetic, so the ranking below agrees
      // with PatternTable::best_sector_at at this direction bit for bit.
      db[s] = sources[s]->sample(directions_[g]);
      // Beyond the envelope a linear response or its square overflows,
      // and the NaN it leads to breaks every exact comparison downstream.
      TALON_EXPECTS(std::abs(db[s]) <= kDbEnvelope);
      values_[((i / kTile) * slots + s) * kTile + i % kTile] =
          domain_ == CorrelationDomain::kLinear ? db_to_linear(db[s]) : db[s];
    }
    for (std::size_t r = 1; r < slots; ++r) {
      const std::uint8_t s = order[r];
      std::size_t to = r;
      for (; to > 0 && db[order[to - 1]] < db[s]; --to) order[to] = order[to - 1];
      order[to] = s;
    }
    std::uint8_t* const rank = ranking_.data() + g * slots;
    rank[0] = order[0];
    for (std::size_t r = 1; r < slots; ++r) {
      rank[r] = order[r] | (db[order[r]] == db[order[r - 1]] ? kTiesPrevious : 0);
    }
  }
}

int ResponseMatrix::best_sector_at(std::size_t g, std::span<const int> candidates) const {
  TALON_EXPECTS(!candidates.empty() && g < points());
  static_assert(kMaxSectorId < 64, "candidate slots must fit one 64-bit mask");
  std::uint64_t wanted = 0;
  for (const int id : candidates) {
    const int s = slot(id);
    TALON_EXPECTS(s >= 0);
    wanted |= std::uint64_t{1} << s;
  }
  const auto is_wanted = [&](std::uint8_t entry) {
    return ((wanted >> (entry & kSlotMask)) & 1) != 0;
  };
  // The first ranked candidate holds the largest gain among them, and the
  // ranks tied with it follow it directly.
  const std::uint8_t* rank = ranking_.data() + g * sector_ids_.size();
  const std::uint8_t* const end = rank + sector_ids_.size();
  while (!is_wanted(*rank)) ++rank;
  std::uint64_t tied = 0;
  for (const std::uint8_t* r = rank + 1; r != end && (*r & kTiesPrevious) != 0; ++r) {
    if (is_wanted(*r)) tied |= std::uint64_t{1} << (*r & kSlotMask);
  }
  if (tied == 0) return sector_ids_[*rank & kSlotMask];
  // Several candidates share that gain: the first in `candidates` wins.
  tied |= std::uint64_t{1} << (*rank & kSlotMask);
  for (const int id : candidates) {
    if (((tied >> slot(id)) & 1) != 0) return id;
  }
  return -1;  // unreachable: every tied slot came from `candidates`
}

std::shared_ptr<const SubsetPanel> ResponseMatrix::build_panel(
    std::span<const int> slots) const {
  constexpr std::size_t kTile = SubsetPanel::kTilePoints;
  const std::size_t m = slots.size();
  TALON_EXPECTS(m >= 1);
  for (const int s : slots) {
    TALON_EXPECTS(s >= 0 && static_cast<std::size_t>(s) < sector_ids_.size());
  }

  auto panel = std::make_shared<SubsetPanel>();
  panel->slots.assign(slots.begin(), slots.end());
  panel->rows.resize(m);
  for (std::size_t mm = 0; mm < m; ++mm) {
    panel->rows[mm] = static_cast<std::size_t>(slots[mm]) * kTile;
  }
  const std::size_t fine = tiles_.fine_tiles;

  // The per-tile statistics kernel (core/tile_dots.hpp) writes each
  // tile's root norms and shares in place.
  panel->root_norms.resize(fine * kTile);
  panel->fine_abs_norm_max.resize(fine * m);
  for (std::size_t t = 0; t < fine; ++t) {
    tile_stats(tile_block(t), panel->rows.data(), m, panel->root_norms.data() + t * kTile,
               panel->fine_abs_norm_max.data() + t * m);
  }

  panel->coarse_abs_norm_max.resize(tiles_.coarse_tiles * m);
  for (std::size_t c = 0; c < tiles_.coarse_tiles; ++c) {
    // Row-wise maxima of the coarse tile's fine rows, from resize's zeros.
    double* hi = panel->coarse_abs_norm_max.data() + c * m;
    for (std::size_t t = tiles_.first_fine(c); t < tiles_.last_fine(c); ++t) {
      const double* u = panel->fine_abs_norm_max.data() + t * m;
      for (std::size_t mm = 0; mm < m; ++mm) hi[mm] = std::max(hi[mm], u[mm]);
    }
  }
  return panel;
}

std::shared_ptr<const SubsetPanel> ResponseMatrix::panel(
    std::span<const int> slots) const {
  {
    const std::shared_lock<std::shared_mutex> lock(cache_mutex_);
    const auto it = panel_cache_.find(slots);
    if (it != panel_cache_.end()) {
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  cache_misses_.fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<const SubsetPanel> built = build_panel(slots);

  const std::lock_guard<std::shared_mutex> lock(cache_mutex_);
  const auto it = panel_cache_.find(slots);
  if (it != panel_cache_.end()) return it->second;  // lost the insert race
  if (panel_cache_.size() < kMaxCachedSubsets) {
    panel_cache_.emplace(built->slots, built);
  }
  return built;
}

std::size_t ResponseMatrix::cached_subset_count() const {
  const std::shared_lock<std::shared_mutex> lock(cache_mutex_);
  return panel_cache_.size();
}

}  // namespace talon
