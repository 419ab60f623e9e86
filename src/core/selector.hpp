// A compressive sector selector paired with its own kernel scratch.
//
// CompressiveSectorSelector is immutable and shared; the argmax kernel's
// CorrelationWorkspace is per caller. CssSelector holds one of each, so a
// long-lived caller -- a bench loop, a replay cell, the CLI -- reaches the
// zero-allocation steady state of the kernel without threading a
// workspace through every call.
#pragma once

#include <span>

#include "src/core/css.hpp"

namespace talon {

/// Non-owning over a CompressiveSectorSelector, which the caller keeps
/// alive; owns the CorrelationWorkspace its sweeps run in.
class CssSelector {
 public:
  explicit CssSelector(const CompressiveSectorSelector& css) : css_(&css) {}

  /// One sweep (CompressiveSectorSelector::select). `candidates`
  /// restricts the Eq. 4 choice to the given sector IDs; empty means all
  /// transmit sectors.
  CssResult select(std::span<const SectorReading> probes,
                   std::span<const int> candidates = {}) {
    return css_->select(probes, ws_, candidates);
  }

  const CompressiveSectorSelector& css() const { return *css_; }

  /// The selector's private kernel scratch (diagnostics / tests).
  const CorrelationWorkspace& workspace() const { return ws_; }

 private:
  const CompressiveSectorSelector* css_;
  CorrelationWorkspace ws_;
};

}  // namespace talon
