// Compressive sector selection (Sec. 2.2) -- the paper's core contribution.
//
// Two steps on top of the CorrelationEngine:
//   1. estimate the dominant path direction (phi^, theta^) by maximizing
//      the (SNR x RSSI) correlation surface over the search grid
//      (Eqs. 3 and 5), then
//   2. pick, among ALL N sectors, the one whose *measured* pattern has the
//      strongest gain toward that direction (Eq. 4) -- so the number of
//      available sectors can far exceed the number of probes.
#pragma once

#include <memory>
#include <optional>
#include <span>

#include "src/antenna/pattern.hpp"
#include "src/core/correlation.hpp"
#include "src/core/pattern_assets.hpp"

namespace talon {

struct CssConfig {
  /// Discrete (phi, theta) grid of Eq. 3. Default spans the frontal
  /// hemisphere at 1.5 deg azimuth / 2 deg elevation resolution, covering
  /// the elevations the pattern campaign measured.
  AngularGrid search_grid{
      .azimuth = {.first = -90.0, .step = 1.5, .count = 121},
      .elevation = {.first = 0.0, .step = 2.0, .count = 17},
  };
  /// Use the Eq. 5 SNR x RSSI product (true) or SNR-only Eq. 2 (ablation).
  bool use_rssi{true};
  CorrelationDomain domain{CorrelationDomain::kLinear};
  /// Below this many decoded probes the estimate is not trustworthy and
  /// select() falls back to the plain argmax over what was received.
  std::size_t min_probes{3};
  /// Compute CssResult::confidence (the peak-to-second-peak ratio of the
  /// correlation surface over the probed subset). The branch-and-bound
  /// walk finds the rival peak alongside the peak, with no surface;
  /// enabled by the graceful-degradation layer (driver/link_session.hpp),
  /// off on the figure and replay paths. Selections are bit-identical
  /// either way. Requires use_rssi (the SNR-only ablation has no
  /// confidence).
  bool compute_confidence{false};
  /// Azimuth exclusion radius around the main peak when searching for the
  /// second peak: nearer points belong to the main lobe, not a rival
  /// hypothesis.
  double confidence_exclusion_deg{10.0};
};

struct CssResult {
  /// False when not a single probe frame was decoded; sector_id is then
  /// meaningless and callers should keep their previous selection.
  bool valid{false};
  int sector_id{0};
  /// Estimated angle of arrival (Eq. 3); only set when the compressive
  /// path (not the fallback argmax) produced the selection.
  std::optional<Direction> estimated_direction;
  /// Peak of the correlation surface, in [0, 1].
  double correlation_peak{0.0};
  /// True when too few probes decoded and the argmax fallback was used.
  bool fallback_used{false};
  /// Peak-to-second-peak ratio of the correlation surface (>= 1), the
  /// selection's trustworthiness: a sharp single hypothesis scores high, a
  /// flat or multi-modal surface (outliers, heavy loss) approaches 1.
  /// Only computed when CssConfig::compute_confidence is set; 0 otherwise.
  double confidence{0.0};
};

class CompressiveSectorSelector {
 public:
  /// `patterns` is the measured pattern table of the local device
  /// (Sec. 4); it defines both the expected probe responses and the Eq. 4
  /// candidate gains. Resolves the immutable assets (table + response
  /// matrix) through the PatternAssetsRegistry, so selectors built from
  /// the same table and grid share one matrix and norm cache.
  CompressiveSectorSelector(PatternTable patterns, CssConfig config = {});

  /// Ride pre-built shared assets directly (the multi-link path: N
  /// sessions, one matrix). The assets' grid and domain override the
  /// corresponding CssConfig fields.
  explicit CompressiveSectorSelector(std::shared_ptr<const PatternAssets> assets,
                                     CssConfig config = {});

  /// The selection entry point: full CSS for one sweep -- estimate the
  /// path, then select the best of `candidates` (Eq. 4; empty means
  /// tx_candidates()). A sweep with at least min_probes usable probes
  /// takes CorrelationEngine::combined_argmax; an empty sweep comes back
  /// invalid and an under-probed one takes the argmax fallback. Zero heap
  /// allocations once `ws` is warm; consecutive sweeps over one probe
  /// sequence resolve its panel once.
  CssResult select(std::span<const SectorReading> probes, CorrelationWorkspace& ws,
                   std::span<const int> candidates = {}) const;

  const PatternTable& patterns() const { return assets_->patterns(); }
  const CssConfig& config() const { return config_; }

  /// The immutable shared assets this selector rides (never null).
  const std::shared_ptr<const PatternAssets>& assets() const { return assets_; }

 private:
  const CorrelationEngine& engine() const { return assets_->engine(); }

  std::shared_ptr<const PatternAssets> assets_;
  CssConfig config_;
};

}  // namespace talon
