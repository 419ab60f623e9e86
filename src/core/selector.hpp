// Strategy interface over the sector-selection algorithms.
//
// The experiment runners, benches, examples and the CLI all need "give me
// a sector for this sweep" without caring whether the answer comes from
// the stock SSW argmax (Eq. 1), compressive selection (Eqs. 2-5), or CSS
// smoothed by a path tracker. SectorSelector is that seam: new variants
// (adaptive, multipath-aware, ...) plug into every driver without
// per-call-site plumbing.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "src/core/css.hpp"
#include "src/core/tracking.hpp"

namespace talon {

class SectorSelector {
 public:
  virtual ~SectorSelector() = default;

  /// Human-readable strategy name for reports and logs.
  virtual std::string_view name() const = 0;

  /// Select a sector from one sweep's readings. `candidates` restricts the
  /// choice to the given sector IDs; empty means the selector's default
  /// candidate set (all transmit sectors it knows about). Selectors may be
  /// stateful (tracking, adaptation), hence non-const.
  virtual CssResult select(std::span<const SectorReading> probes,
                           std::span<const int> candidates = {}) = 0;

  /// Angle-of-arrival estimate (Eq. 3) for selectors that compute one;
  /// the default capability is "none" (e.g. the plain argmax).
  virtual std::optional<Direction> estimate_direction(
      std::span<const SectorReading> probes);

  /// An independent selector with the same configuration and no
  /// accumulated state. The parallel replay engine forks the selector once
  /// per trial cell so cells never share mutable state, which keeps
  /// results identical at any thread count (stateful selectors therefore
  /// track within a cell, not across cells).
  virtual std::unique_ptr<SectorSelector> fork() const = 0;

  /// Batched select() over many sweeps sharing one candidate set; results
  /// must equal calling select() per element, in order. The default does
  /// exactly that; batching-capable selectors override it to amortize the
  /// grid walk across sweeps with a common probe subset.
  virtual std::vector<CssResult> select_batch(
      std::span<const std::vector<SectorReading>> sweeps,
      std::span<const int> candidates = {});

  /// Batched estimate_direction(); same contract as select_batch().
  virtual std::vector<std::optional<Direction>> estimate_directions(
      std::span<const std::vector<SectorReading>> sweeps);
};

/// The stock IEEE 802.11ad baseline: argmax over the reported SNRs
/// (core/ssw.hpp). `candidates` is ignored -- the unmodified firmware can
/// only pick among the sectors it actually received.
class SswArgmaxSelector final : public SectorSelector {
 public:
  std::string_view name() const override { return "ssw-argmax"; }
  CssResult select(std::span<const SectorReading> probes,
                   std::span<const int> candidates = {}) override;
  std::unique_ptr<SectorSelector> fork() const override {
    return std::make_unique<SswArgmaxSelector>();
  }
};

/// Compressive sector selection (Eqs. 2-5). Non-owning adapter over a
/// CompressiveSectorSelector, which the caller keeps alive. Owns the
/// CorrelationWorkspace its sweeps run in, so a long-lived selector (a
/// LinkSession, a replay cell's fork) reaches the zero-allocation
/// steady state of the argmax kernel.
class CssSelector final : public SectorSelector {
 public:
  explicit CssSelector(const CompressiveSectorSelector& css) : css_(&css) {}

  std::string_view name() const override { return "css"; }
  CssResult select(std::span<const SectorReading> probes,
                   std::span<const int> candidates = {}) override;
  std::optional<Direction> estimate_direction(
      std::span<const SectorReading> probes) override;
  std::unique_ptr<SectorSelector> fork() const override {
    return std::make_unique<CssSelector>(*css_);
  }
  std::vector<CssResult> select_batch(
      std::span<const std::vector<SectorReading>> sweeps,
      std::span<const int> candidates = {}) override;
  std::vector<std::optional<Direction>> estimate_directions(
      std::span<const std::vector<SectorReading>> sweeps) override;

  const CompressiveSectorSelector& css() const { return *css_; }

  /// The selector's private kernel scratch (diagnostics / tests).
  const CorrelationWorkspace& workspace() const { return ws_; }

 private:
  const CompressiveSectorSelector* css_;
  CorrelationWorkspace ws_;
};

/// CSS with temporal smoothing: each sweep's Eq. 3 estimate feeds a
/// PathTracker and Eq. 4 re-runs on the *tracked* direction, rejecting
/// one-off estimate jumps while re-locking on persistent path changes.
class TrackingCssSelector final : public SectorSelector {
 public:
  explicit TrackingCssSelector(const CompressiveSectorSelector& css,
                               const PathTrackerConfig& tracker_config = {})
      : css_(&css), tracker_(tracker_config) {}

  std::string_view name() const override { return "css-tracking"; }
  CssResult select(std::span<const SectorReading> probes,
                   std::span<const int> candidates = {}) override;
  std::optional<Direction> estimate_direction(
      std::span<const SectorReading> probes) override;

  /// Forks restart with an empty tracker: accumulated path state is the
  /// kind of cross-cell coupling fork() exists to sever.
  std::unique_ptr<SectorSelector> fork() const override {
    return std::make_unique<TrackingCssSelector>(*css_, tracker_.config());
  }

  /// The smoothed path direction (empty before the first valid estimate).
  const std::optional<Direction>& tracked() const { return tracker_.current(); }

  PathTracker& tracker() { return tracker_; }

 private:
  /// The tracking step select() applies to each compressive result:
  /// feed the estimate to the tracker and re-run Eq. 4 on the tracked
  /// direction over `candidates` (empty: all transmit sectors). Results
  /// without an estimate pass through.
  CssResult track(CssResult result, std::span<const int> candidates);

  const CompressiveSectorSelector* css_;
  PathTracker tracker_;
  CorrelationWorkspace ws_;
};

}  // namespace talon
