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

CssResult CompressiveSectorSelector::select(std::span<const SectorReading> probes,
                                            CorrelationWorkspace& ws,
                                            std::span<const int> candidates) const {
  // All table sectors except the quasi-omni receive pattern by default:
  // feedback must name one of the peer's *transmit* sectors.
  if (candidates.empty()) candidates = assets_->tx_candidates();
  TALON_EXPECTS(!candidates.empty());
  CssResult result;
  if (probes.empty()) return result;  // invalid: keep previous selection
  result.valid = true;
  if (engine().usable_probe_count(probes) < config_.min_probes) {
    // Too few decoded probes for a trustworthy correlation: fall back to
    // the plain argmax over what was received (Eq. 1 on the subset).
    const auto best = std::max_element(
        probes.begin(), probes.end(),
        [](const SectorReading& a, const SectorReading& b) { return a.snr_db < b.snr_db; });
    result.sector_id = best->sector_id;
    result.fallback_used = true;
    return result;
  }
  if (config_.use_rssi) {
    const ArgmaxResult peak = engine().combined_argmax(
        probes, ws,
        config_.compute_confidence ? std::optional<double>(config_.confidence_exclusion_deg)
                                   : std::nullopt);
    result.estimated_direction = peak.direction;
    result.correlation_peak = peak.value;
    if (config_.compute_confidence) {
      result.confidence = peak_confidence(peak.value, peak.rival);
    }
  } else {
    // The SNR-only ablation (Eq. 2) keeps its full surface.
    const Grid2D::Peak peak = engine().surface(probes, SignalValue::kSnr).peak();
    result.estimated_direction = peak.direction;
    result.correlation_peak = peak.value;
  }
  result.sector_id = patterns().best_sector_at(*result.estimated_direction, candidates);
  return result;
}

}  // namespace talon
