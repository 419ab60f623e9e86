#include "src/core/selector.hpp"

namespace talon {

CssResult CssSelector::select(std::span<const SectorReading> probes,
                              std::span<const int> candidates) {
  CssResult result;
  css_->select_batch({&probes, 1}, or_tx(candidates), {&result, 1}, ws_);
  return result;
}

std::vector<CssResult> CssSelector::select_batch(
    std::span<const std::vector<SectorReading>> sweeps,
    std::span<const int> candidates) {
  const std::vector<std::span<const SectorReading>> views(sweeps.begin(), sweeps.end());
  std::vector<CssResult> results(sweeps.size());
  css_->select_batch(views, or_tx(candidates), results, ws_);
  return results;
}

}  // namespace talon
