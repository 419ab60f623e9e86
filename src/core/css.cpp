#include "src/core/css.hpp"

#include <algorithm>
#include <limits>

#include "src/common/error.hpp"

namespace talon {

namespace {

/// Peak-to-second-peak ratio; infinity when no rival hypothesis has any
/// correlation at all.
double peak_confidence(double peak, double rival) {
  if (rival <= 0.0) {
    return peak > 0.0 ? std::numeric_limits<double>::infinity() : 1.0;
  }
  return peak / rival;
}

}  // namespace

CompressiveSectorSelector::CompressiveSectorSelector(PatternTable patterns,
                                                     CssConfig config)
    : assets_(PatternAssetsRegistry::global().get_or_create(
          std::move(patterns), config.search_grid, config.domain)),
      config_(config) {
  TALON_EXPECTS(config_.min_probes >= 2);
  TALON_EXPECTS(config_.use_rssi || !config_.compute_confidence);
}

CompressiveSectorSelector::CompressiveSectorSelector(
    std::shared_ptr<const PatternAssets> assets, CssConfig config)
    : assets_(std::move(assets)), config_(config) {
  TALON_EXPECTS(assets_ != nullptr);
  TALON_EXPECTS(config_.min_probes >= 2);
  TALON_EXPECTS(config_.use_rssi || !config_.compute_confidence);
  config_.search_grid = assets_->grid();
  config_.domain = assets_->domain();
}

void CompressiveSectorSelector::compressive_peaks(
    std::span<const std::span<const SectorReading>> sweeps,
    CorrelationWorkspace& ws) const {
  ws.ensure_size(ws.select_sweeps_, sweeps.size());
  ws.ensure_size(ws.select_index_, sweeps.size());
  std::size_t k = 0;
  for (std::size_t i = 0; i < sweeps.size(); ++i) {
    if (engine().usable_probe_count(sweeps[i]) < config_.min_probes) continue;
    ws.select_sweeps_[k] = sweeps[i];
    ws.select_index_[k] = static_cast<std::uint32_t>(i);
    ++k;
  }
  ws.select_sweeps_.resize(k);
  ws.select_index_.resize(k);
  ws.ensure_size(ws.select_peaks_, k);
  if (k == 0) return;
  engine().combined_argmax_batch(
      ws.select_sweeps_, ws.select_peaks_, ws,
      config_.compute_confidence
          ? std::optional<double>(config_.confidence_exclusion_deg)
          : std::nullopt);
}

void CompressiveSectorSelector::select_batch(
    std::span<const std::span<const SectorReading>> sweeps,
    std::span<const int> candidates, std::span<CssResult> out,
    CorrelationWorkspace& ws) const {
  TALON_EXPECTS(!candidates.empty());
  TALON_EXPECTS(out.size() == sweeps.size());
  if (config_.use_rssi) compressive_peaks(sweeps, ws);
  auto estimated = [&](CssResult& result, const Direction& direction, double value) {
    result.valid = true;
    result.estimated_direction = direction;
    result.correlation_peak = value;
    result.sector_id = patterns().best_sector_at(direction, candidates);
  };
  std::size_t next = 0;  // cursor into the walk's (ascending) sweep indices
  for (std::size_t i = 0; i < sweeps.size(); ++i) {
    const std::span<const SectorReading> probes = sweeps[i];
    CssResult& result = out[i];
    result = CssResult{};
    if (config_.use_rssi && next < ws.select_index_.size() &&
        ws.select_index_[next] == i) {
      const ArgmaxResult& peak = ws.select_peaks_[next++];
      estimated(result, peak.direction, peak.value);
      if (config_.compute_confidence) {
        result.confidence = peak_confidence(peak.value, peak.rival);
      }
      continue;
    }
    if (probes.empty()) continue;  // invalid: keep previous selection
    if (config_.use_rssi || engine().usable_probe_count(probes) < config_.min_probes) {
      // Too few decoded probes for a trustworthy correlation: fall back to
      // the plain argmax over what was received (Eq. 1 on the subset).
      const auto best = std::max_element(
          probes.begin(), probes.end(),
          [](const SectorReading& a, const SectorReading& b) { return a.snr_db < b.snr_db; });
      result.valid = true;
      result.sector_id = best->sector_id;
      result.fallback_used = true;
      continue;
    }
    // The SNR-only ablation (Eq. 2) keeps its full surface.
    const Grid2D::Peak peak = engine().surface(probes, SignalValue::kSnr).peak();
    estimated(result, peak.direction, peak.value);
  }
}

CssResult CompressiveSectorSelector::select(std::span<const SectorReading> probes,
                                            CorrelationWorkspace& ws) const {
  // All table sectors except the quasi-omni receive pattern: feedback must
  // name one of the peer's *transmit* sectors.
  CssResult result;
  select_batch({&probes, 1}, assets_->tx_candidates(), {&result, 1}, ws);
  return result;
}

}  // namespace talon
