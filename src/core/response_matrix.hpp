// Tile-major response matrix: the shared data layer under every
// dictionary-correlation estimator (the Eq. 2/5 surfaces and the Eq. 3
// branch-and-bound walk).
//
// The matrix resamples every sector of a PatternTable onto the search grid
// once, in the chosen correlation domain, and stores it in the grid's
// TileMap order: fine tile by fine tile, and inside a tile one contiguous
// row of kTilePoints point responses per sector slot
// ([fine tile][slot][32 points], zero padding in the ragged last tile,
// every row 64-byte aligned). The inner loop of a correlation pass -- "for
// each tile, dot the probe vector against the probed sectors' rows" --
// then reads M contiguous 32-wide rows of one tile block, picked by the
// probe sequence's slots, which is what makes the fused Eq. 5 pass
// vectorizable without any per-point gather.
//
// On top of the matrix sits the subset-panel cache: for one probe
// slot-sequence, a SubsetPanel holds what depends on the subset and not
// on the probe values -- the row offsets of its slots, the per-point root
// subset norms in tile order (the Eq. 2 denominator, accumulated in
// sequence order so cache hits stay bit-identical to a fresh pass) and
// the per-tile normalized response maxima, the one statistic behind the
// Cauchy-Schwarz upper bound the branch-and-bound argmax
// (core/correlation.hpp) prunes with. A panel holds no copy of the
// responses: every panel reads the one shared matrix, so a build is one
// dispatched tile_stats pass (core/tile_dots.hpp) per tile over the
// probed rows, writing the panel's arrays in place, and a cached panel
// costs tens of kilobytes. The matrix
// admits only responses within kDbEnvelope (common/units.hpp), so no
// statistic is ever NaN and every comparison on them is exact.
// Panels are keyed on the exact slot sequence (not the set) and shared
// across every reader of the matrix: repeated sweeps with the same probe
// subset -- the common case in the experiment runners, tracking loops and
// benches -- skip the statistics pass entirely. The cache takes a shared
// lock on hits and an exclusive lock only to insert, so K concurrent links
// replaying the same codebook do not serialize on it; hit/miss counters
// are exposed for diagnostics.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <span>
#include <vector>

#include "src/antenna/codebook.hpp"
#include "src/antenna/pattern.hpp"
#include "src/common/aligned.hpp"
#include "src/common/fields.hpp"
#include "src/common/grid.hpp"

namespace talon {

/// Domain the correlation vectors live in. The paper correlates received
/// signal strengths; kLinear converts dB readings/patterns to linear power
/// first (the physically meaningful choice), kDb correlates raw dB values
/// (kept as an ablation).
enum class CorrelationDomain : std::uint8_t { kLinear, kDb };

/// One probe subset's statistics over the shared response matrix,
/// immutable once built and shared behind shared_ptr<const>.
///
/// Grid points are blocked into fine tiles of kTilePoints points each and
/// fine tiles into coarse tiles of kFinePerCoarse consecutive fine tiles,
/// following the matrix's TileMap (below): a fine tile is a compact
/// azimuth x elevation block of the grid, so the per-tile bound only has
/// to cover sector responses over a few degrees in each direction. The
/// responses themselves stay in the matrix: sequence position m of the
/// panel reads row `rows[m]` of each tile block
/// (ResponseMatrix::tile_block), so the Eq. 5 dot product runs as M
/// contiguous multiply-accumulate rows over the tile's points
/// (vectorizable without reassociating any per-point sum: point g's
/// accumulation order over m is unchanged). All statistics cover valid
/// points only; the tile counts are the matrix's (ResponseMatrix::tiles()).
struct SubsetPanel {
  /// Grid points per fine tile (one pruning granule).
  static constexpr std::size_t kTilePoints = 32;
  /// Fine tiles per coarse tile (the second pyramid level).
  static constexpr std::size_t kFinePerCoarse = 8;

  /// The exact probe slot sequence this panel describes (the cache key).
  std::vector<int> slots;
  /// Offset of sequence position m's row inside a tile block:
  /// slots[m] * kTilePoints doubles.
  std::vector<std::size_t> rows;
  /// ||x(g)|| over `slots`, the sum of squares accumulated in sequence
  /// order (duplicate slots contribute once per occurrence), indexed by
  /// TileMap slot t * kTilePoints + gi (0 in the ragged tail's padding):
  /// tile t's roots are the kTilePoints doubles tile_w reads.
  std::vector<double> root_norms;

  /// Per fine tile, per sequence position: max over the tile's
  /// positive-norm points of |x_m(g)| / ||x(g)|| -- the largest share
  /// this probe slot can contribute to a *normalized* dictionary column
  /// anywhere in the tile (0 when no such point). Indexed [t * M + m].
  /// Dotting |p| against these dominates |<p, x_hat(g)>| for every g in
  /// the tile, which is the Cauchy-Schwarz tile bound the argmax prunes
  /// with; normalizing per point first is what keeps the bound tight when
  /// raw responses span orders of magnitude across a tile.
  std::vector<double> fine_abs_norm_max;

  /// Coarse aggregates of the fine statistics: row-wise maxima over the
  /// coarse tile's fine tiles, indexed [c * M + m].
  std::vector<double> coarse_abs_norm_max;

  std::size_t m() const { return slots.size(); }
};

/// Which grid points share a tile: one layout per grid, shared by every
/// SubsetPanel of the matrix (panels hold no copy).
///
/// Points are ordered into elevation bands of about kFineBandRows rows,
/// each band walked column by column in azimuth (alternate bands right to
/// left, so a tile that straddles two bands stays at one edge of the
/// grid), and cut into runs of kTilePoints: every fine tile is a compact
/// block of about kTilePoints / kFineBandRows columns by kFineBandRows
/// rows. Coarse tiles get the same treatment one level up: the grid is
/// first cut into runs of kFinePerCoarse * kTilePoints points along
/// kCoarseBandRows-row bands, and each run is then ordered into fine
/// tiles, so a coarse tile is a compact block of its eight fine tiles.
/// Every tile but the last is full, so the grid takes
/// ceil(points / kTilePoints) tiles, no more than a flat-index blocking.
struct TileMap {
  /// Target rows of a fine / coarse elevation band (fixed by measuring
  /// how many tiles the branch-and-bound evaluates on realistic sweeps).
  static constexpr std::size_t kFineBandRows = 8;
  static constexpr std::size_t kCoarseBandRows = 16;

  std::size_t fine_tiles{0};
  std::size_t coarse_tiles{0};
  /// Flat grid index of the point in tile slot i = t * kTilePoints + gi
  /// (one entry per valid point; only the last tile has padding slots).
  std::vector<std::uint32_t> point;
  /// Azimuth column of the point in tile slot i.
  std::vector<std::uint32_t> column;
  /// Tile slot of flat grid index g: the inverse of `point`.
  std::vector<std::uint32_t> tile_slot;
  /// Smallest flat grid index in each fine / coarse tile: the tie rule of
  /// the branch-and-bound asks whether a tile could hold a lower-index
  /// point than the running peak.
  std::vector<std::uint32_t> fine_min;
  std::vector<std::uint32_t> coarse_min;

  explicit TileMap(const AngularGrid& grid);

  /// Valid points in fine tile t.
  std::size_t count(std::size_t t) const {
    return std::min(SubsetPanel::kTilePoints,
                    point.size() - t * SubsetPanel::kTilePoints);
  }
  /// Fine tiles [first, last) of coarse tile c.
  std::size_t first_fine(std::size_t c) const {
    return c * SubsetPanel::kFinePerCoarse;
  }
  std::size_t last_fine(std::size_t c) const {
    return std::min(first_fine(c) + SubsetPanel::kFinePerCoarse, fine_tiles);
  }
};

class ResponseMatrix {
 public:
  ResponseMatrix(const PatternTable& patterns, AngularGrid grid,
                 CorrelationDomain domain);

  const AngularGrid& grid() const { return grid_; }
  CorrelationDomain domain() const { return domain_; }

  /// Alignment guarantee of the values: the base pointer is
  /// kValuesAlignment aligned, and because every per-slot row spans
  /// kTilePoints doubles (kTilePoints * sizeof(double) = 256 bytes, a
  /// multiple of the alignment) EVERY row of every tile block --
  /// tile_block(t) + s * kTilePoints for any t, s, including the
  /// zero-padded ragged tail tile -- is also kValuesAlignment aligned. The
  /// vectorized tile kernels (core/tile_dots.hpp) rely on this to use
  /// aligned SIMD loads.
  static constexpr std::size_t kValuesAlignment = 64;
  static_assert(SubsetPanel::kTilePoints * sizeof(double) % kValuesAlignment == 0,
                "every tile row must start on the SIMD alignment boundary");

  /// Grid points and sectors (slots).
  std::size_t points() const { return grid_.size(); }
  std::size_t slots() const { return sector_ids_.size(); }

  /// Sector IDs in ascending order; the index of an ID is its slot.
  const std::vector<int>& sector_ids() const { return sector_ids_; }

  /// Slot of a sector ID, or -1 when absent from the table: a bounds
  /// check and one load (every ID of a PatternTable lies in [0, kMaxSectorId]).
  int slot(int sector_id) const {
    const auto id = static_cast<unsigned>(sector_id);  // negative IDs wrap past the end
    return id < slot_of_id_.size() ? slot_of_id_[id] : -1;
  }

  /// Eq. 4 at flat grid index g: the first of `candidates`, in their
  /// order, among those with the largest sampled dB gain toward
  /// directions()[g] -- bit for bit
  /// PatternTable::best_sector_at(directions()[g], candidates), read from
  /// the point's ranking instead of interpolating every candidate.
  /// Throws PreconditionError for an empty set or an ID the table lacks.
  int best_sector_at(std::size_t g, std::span<const int> candidates) const;

  /// Response of sector slot `slot` toward flat grid index `g`.
  double value(std::size_t g, std::size_t slot) const {
    const std::size_t i = tiles_.tile_slot[g];
    return tile_block(i / SubsetPanel::kTilePoints)[slot * SubsetPanel::kTilePoints +
                                                     i % SubsetPanel::kTilePoints];
  }

  /// Fine tile t's block: slots() rows of kTilePoints responses, row s at
  /// + s * kTilePoints, entry gi of a row the point in tile slot
  /// t * kTilePoints + gi (0 past the tile's valid points).
  const double* tile_block(std::size_t t) const {
    return values_.data() + t * sector_ids_.size() * SubsetPanel::kTilePoints;
  }

  /// Every tile block back to back (fine_tiles * slots() * kTilePoints).
  std::span<const double> values() const { return values_; }

  /// Precomputed direction of every grid point (AngularGrid::index order).
  const std::vector<Direction>& directions() const { return directions_; }

  /// The tile layout every subset panel of this matrix is blocked by.
  const TileMap& tiles() const { return tiles_; }

  /// The panel for this exact slot sequence (>= 1 valid slots),
  /// built on first use and cached. Thread-safe: readers take a shared
  /// lock, only the builder that inserts takes an exclusive one.
  std::shared_ptr<const SubsetPanel> panel(std::span<const int> slots) const;

  /// Cached subsets (panels) currently held (diagnostics / tests).
  std::size_t cached_subset_count() const;

  /// Panel-cache traffic since construction. `hits` counts lookups served
  /// under the shared lock; `misses` counts panel builds (a lost insert
  /// race still counts as the build it performed).
  struct CacheStats {
    std::uint64_t hits{0};
    std::uint64_t misses{0};

    /// The one field list (common/fields.hpp); exported as
    /// serve_panel_cache_*.
    static constexpr auto kFields =
        std::make_tuple(field("hits", &CacheStats::hits),
                        field("misses", &CacheStats::misses));
  };
  CacheStats cache_stats() const {
    return {cache_hits_.load(std::memory_order_relaxed),
            cache_misses_.load(std::memory_order_relaxed)};
  }

 private:
  std::shared_ptr<const SubsetPanel> build_panel(std::span<const int> slots) const;

  /// Heterogeneous (span vs vector) lexicographic key order, so lookups
  /// never materialize a key vector.
  struct SlotSequenceLess {
    using is_transparent = void;
    static bool lt(std::span<const int> a, std::span<const int> b) {
      return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
    }
    bool operator()(const std::vector<int>& a, const std::vector<int>& b) const {
      return lt(a, b);
    }
    bool operator()(const std::vector<int>& a, std::span<const int> b) const {
      return lt(a, b);
    }
    bool operator()(std::span<const int> a, const std::vector<int>& b) const {
      return lt(a, b);
    }
  };

  /// A ranking entry: the slot in the low bits, and kTiesPrevious when
  /// its dB gain equals the previous rank's.
  static constexpr std::uint8_t kTiesPrevious = 0x80;
  static constexpr std::uint8_t kSlotMask = 0x3F;

  AngularGrid grid_;
  CorrelationDomain domain_;
  std::vector<int> sector_ids_;
  /// Slot of every possible sector ID (-1 when absent).
  std::array<std::int8_t, kMaxSectorId + 1> slot_of_id_;
  /// Per flat grid index g, slots() entries at g * slots(): the slots
  /// ordered by descending sampled dB gain toward directions()[g].
  std::vector<std::uint8_t> ranking_;
  std::vector<Direction> directions_;
  TileMap tiles_;
  /// The tile blocks (see tile_block), in the chosen domain.
  std::vector<double, AlignedAllocator<double, kValuesAlignment>> values_;

  /// Bounds cache growth under adversarial subset churn; beyond the cap,
  /// panels are computed but not retained.
  static constexpr std::size_t kMaxCachedSubsets = 512;
  mutable std::shared_mutex cache_mutex_;
  mutable std::map<std::vector<int>, std::shared_ptr<const SubsetPanel>,
                   SlotSequenceLess>
      panel_cache_;
  mutable std::atomic<std::uint64_t> cache_hits_{0};
  mutable std::atomic<std::uint64_t> cache_misses_{0};
};

}  // namespace talon
