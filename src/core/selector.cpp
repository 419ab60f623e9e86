#include "src/core/selector.hpp"

#include <vector>

#include "src/core/ssw.hpp"

namespace talon {

std::optional<Direction> SectorSelector::estimate_direction(
    std::span<const SectorReading> /*probes*/) {
  return std::nullopt;
}

std::vector<CssResult> SectorSelector::select_batch(
    std::span<const std::vector<SectorReading>> sweeps,
    std::span<const int> candidates) {
  std::vector<CssResult> results;
  results.reserve(sweeps.size());
  for (const std::vector<SectorReading>& sweep : sweeps) {
    results.push_back(select(sweep, candidates));
  }
  return results;
}

std::vector<std::optional<Direction>> SectorSelector::estimate_directions(
    std::span<const std::vector<SectorReading>> sweeps) {
  std::vector<std::optional<Direction>> results;
  results.reserve(sweeps.size());
  for (const std::vector<SectorReading>& sweep : sweeps) {
    results.push_back(estimate_direction(sweep));
  }
  return results;
}

CssResult SswArgmaxSelector::select(std::span<const SectorReading> probes,
                                    std::span<const int> /*candidates*/) {
  const SswSelection ssw = sweep_select(probes);
  CssResult result;
  result.valid = ssw.valid;
  result.sector_id = ssw.sector_id;
  return result;
}

namespace {

/// `candidates`, or all transmit sectors when empty.
std::span<const int> or_tx(std::span<const int> candidates,
                           const CompressiveSectorSelector& css) {
  return candidates.empty() ? std::span<const int>(css.assets()->tx_candidates())
                            : candidates;
}

/// One sweep through the selector's batch entry point.
CssResult select_one(const CompressiveSectorSelector& css,
                     std::span<const SectorReading> probes,
                     std::span<const int> candidates, CorrelationWorkspace& ws) {
  CssResult result;
  css.select_batch({&probes, 1}, or_tx(candidates, css), {&result, 1}, ws);
  return result;
}

}  // namespace

CssResult CssSelector::select(std::span<const SectorReading> probes,
                              std::span<const int> candidates) {
  return select_one(*css_, probes, candidates, ws_);
}

std::optional<Direction> CssSelector::estimate_direction(
    std::span<const SectorReading> probes) {
  return css_->estimate_direction(probes, ws_);
}

std::vector<CssResult> CssSelector::select_batch(
    std::span<const std::vector<SectorReading>> sweeps,
    std::span<const int> candidates) {
  const std::vector<std::span<const SectorReading>> views(sweeps.begin(), sweeps.end());
  std::vector<CssResult> results(sweeps.size());
  css_->select_batch(views, or_tx(candidates, *css_), results, ws_);
  return results;
}

std::vector<std::optional<Direction>> CssSelector::estimate_directions(
    std::span<const std::vector<SectorReading>> sweeps) {
  const std::vector<std::span<const SectorReading>> views(sweeps.begin(), sweeps.end());
  std::vector<std::optional<Direction>> results(sweeps.size());
  css_->estimate_directions(views, results, ws_);
  return results;
}

CssResult TrackingCssSelector::select(std::span<const SectorReading> probes,
                                      std::span<const int> candidates) {
  return track(select_one(*css_, probes, candidates, ws_), candidates);
}

CssResult TrackingCssSelector::track(CssResult result, std::span<const int> candidates) {
  if (result.valid && result.estimated_direction) {
    // Re-run Eq. 4 on the smoothed direction instead of this sweep's raw
    // estimate.
    const Direction tracked = tracker_.update(*result.estimated_direction);
    result.sector_id =
        css_->patterns().best_sector_at(tracked, or_tx(candidates, *css_));
    result.estimated_direction = tracked;
  }
  return result;
}

std::optional<Direction> TrackingCssSelector::estimate_direction(
    std::span<const SectorReading> probes) {
  return css_->estimate_direction(probes, ws_);
}

}  // namespace talon
