// A compressive sector selector paired with its own kernel scratch.
//
// CompressiveSectorSelector is immutable and shared; the argmax kernel's
// CorrelationWorkspace is per caller. CssSelector holds one of each, so a
// long-lived caller -- a bench loop, a replay cell, the CLI -- reaches the
// zero-allocation steady state of the kernel without threading a
// workspace through every call.
#pragma once

#include <span>
#include <vector>

#include "src/core/css.hpp"

namespace talon {

/// Non-owning over a CompressiveSectorSelector, which the caller keeps
/// alive; owns the CorrelationWorkspace its sweeps run in.
class CssSelector {
 public:
  explicit CssSelector(const CompressiveSectorSelector& css) : css_(&css) {}

  /// One sweep. `candidates` restricts the Eq. 4 choice to the given
  /// sector IDs; empty means all transmit sectors.
  CssResult select(std::span<const SectorReading> probes,
                   std::span<const int> candidates = {});

  /// select() for each sweep, in one batch call
  /// (CompressiveSectorSelector::select_batch).
  std::vector<CssResult> select_batch(
      std::span<const std::vector<SectorReading>> sweeps,
      std::span<const int> candidates = {});

  const CompressiveSectorSelector& css() const { return *css_; }

  /// The selector's private kernel scratch (diagnostics / tests).
  const CorrelationWorkspace& workspace() const { return ws_; }

 private:
  /// `candidates`, or all transmit sectors when empty.
  std::span<const int> or_tx(std::span<const int> candidates) const {
    return candidates.empty() ? std::span<const int>(css_->assets()->tx_candidates())
                              : candidates;
  }

  const CompressiveSectorSelector* css_;
  CorrelationWorkspace ws_;
};

}  // namespace talon
