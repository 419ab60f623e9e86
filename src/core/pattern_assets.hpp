// Shared immutable pattern assets.
//
// Everything a compressive selector needs that never changes after a
// codebook is measured -- the PatternTable itself, the tile-major
// ResponseMatrix (inside the CorrelationEngine) and the Eq. 4 candidate
// set -- is bundled into one immutable PatternAssets object held behind
// shared_ptr<const>. N links (daemon sessions, simulated pairs, replay
// workers) then share ONE resampled matrix and ONE subset-norm cache
// instead of each carrying a private copy, which is what keeps per-link
// state cheap in dense multi-link deployments (Sec. 7's scaling regime).
//
// The PatternAssetsRegistry deduplicates by *codebook identity*: a
// fingerprint of the table contents plus the search grid and correlation
// domain. Two components that independently load the same measured table
// with the same CSS configuration resolve to the same assets instance.
// The registry holds weak references only, so assets die with their last
// user.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/antenna/pattern.hpp"
#include "src/core/correlation.hpp"

namespace talon {

/// Content fingerprint of a measured table: sector IDs, grid axes and all
/// pattern values (bit patterns, FNV-1a). Identical tables -- including
/// ones reloaded from the same CSV -- hash identically.
std::uint64_t pattern_table_fingerprint(const PatternTable& table);

class PatternAssets {
 public:
  /// Resamples every sector of `patterns` onto `grid` in `domain` once.
  PatternAssets(PatternTable patterns, AngularGrid grid, CorrelationDomain domain);

  const PatternTable& patterns() const { return patterns_; }
  const CorrelationEngine& engine() const { return engine_; }
  const AngularGrid& grid() const { return engine_.search_grid(); }
  CorrelationDomain domain() const { return engine_.domain(); }

  /// The default Eq. 4 candidate set: every table sector except the
  /// quasi-omni receive pattern (feedback must name a transmit sector).
  const std::vector<int>& tx_candidates() const { return tx_candidates_; }

  /// Fingerprint of the table this was built from (registry key part).
  std::uint64_t fingerprint() const { return fingerprint_; }

  /// Approximate resident size of the shared data [bytes]: table grids,
  /// the padded tile-major response matrix, its tile map, the direction
  /// table and the per-point sector ranking: what K links sharing these
  /// assets amortize (printed by bench_dense). Cached subset panels are
  /// not counted.
  std::size_t shared_bytes() const;

 private:
  PatternTable patterns_;
  CorrelationEngine engine_;
  std::vector<int> tx_candidates_;
  std::uint64_t fingerprint_;
};

/// Process-wide weak-reference registry of PatternAssets, keyed by
/// (table fingerprint, search grid, domain). Thread-safe.
class PatternAssetsRegistry {
 public:
  /// The shared registry every daemon/session resolves through.
  static PatternAssetsRegistry& global();

  /// Return the existing assets for this (table, grid, domain) identity,
  /// or build them on first use. The lvalue overload copies the table
  /// only on a registry miss; the rvalue overload consumes it instead.
  std::shared_ptr<const PatternAssets> get_or_create(const PatternTable& patterns,
                                                     const AngularGrid& grid,
                                                     CorrelationDomain domain);
  std::shared_ptr<const PatternAssets> get_or_create(PatternTable&& patterns,
                                                     const AngularGrid& grid,
                                                     CorrelationDomain domain);

  /// Live (still-referenced) asset instances; expired entries are pruned
  /// on every lookup.
  std::size_t live_count() const;

 private:
  struct Key {
    std::uint64_t fingerprint;
    AngularGrid grid;
    CorrelationDomain domain;
    friend bool operator==(const Key&, const Key&) = default;
  };

  mutable std::mutex mutex_;
  mutable std::vector<std::pair<Key, std::weak_ptr<const PatternAssets>>> entries_;
};

}  // namespace talon
