#include "src/core/adaptive.hpp"

#include <algorithm>

#include "src/common/error.hpp"

namespace talon {

AdaptiveProbeController::AdaptiveProbeController(const AdaptiveProbeConfig& config)
    : config_(config), state_{.probes = config.initial_probes} {
  TALON_EXPECTS(config_.min_probes >= 2);
  TALON_EXPECTS(config_.min_probes <= config_.initial_probes);
  TALON_EXPECTS(config_.initial_probes <= config_.max_probes);
  TALON_EXPECTS(config_.window >= 2);
  TALON_EXPECTS(config_.grow_new_ids >= 1);
  state_.window.reserve(config_.window);
}

void AdaptiveProbeController::report_selection(int sector_id) {
  state_.window.push_back(sector_id);
  if (state_.window.size() < config_.window) return;

  std::vector<int> ids = state_.window;
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());

  if (state_.has_previous) {
    std::size_t new_ids = 0;
    for (int id : ids) {
      if (!std::binary_search(state_.previous_window_ids.begin(),
                              state_.previous_window_ids.end(), id)) {
        ++new_ids;
      }
    }
    std::size_t& probes = state_.probes;
    if (new_ids >= config_.grow_new_ids) {
      probes = std::min(config_.max_probes, probes + config_.increase_step);
    } else if (new_ids == 0) {
      probes = std::max(config_.min_probes,
                        probes - std::min(probes, config_.decrease_step));
    }
    // Exactly one new ID: inconclusive (a single noisy selection), hold.
  }
  state_.previous_window_ids = std::move(ids);
  state_.has_previous = true;
  state_.window.clear();
}

}  // namespace talon
