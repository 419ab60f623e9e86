// Adaptive probe-count control (the Sec. 7 extension): "in static
// scenarios, few probes are sufficient to validate the current antenna
// settings. Whenever a node starts moving, the number of probes may
// increase to keep track of the movement."
//
// Detection is based on *drift*, not churn: a static link keeps selecting
// from the same small set of near-equal sectors (Sec. 6.3 shows even the
// full sweep flips between them), while a moving node steers through *new*
// sectors. The controller compares each window of selections against the
// previous window: enough previously-unseen sector IDs means movement
// (widen the search); no new IDs means static (decay toward the floor).
#pragma once

#include <cstddef>
#include <vector>

namespace talon {

struct AdaptiveProbeConfig {
  std::size_t min_probes{8};
  std::size_t max_probes{34};
  std::size_t initial_probes{14};
  /// Selections per adaptation decision.
  std::size_t window{6};
  /// Number of sector IDs absent from the previous window that signals
  /// movement. One new ID within a window holds steady (could be noise).
  std::size_t grow_new_ids{2};
  std::size_t increase_step{6};
  std::size_t decrease_step{2};
};

class AdaptiveProbeController {
 public:
  explicit AdaptiveProbeController(const AdaptiveProbeConfig& config = {});

  /// Probe count to use for the next sweep.
  std::size_t current_probes() const { return state_.probes; }

  /// Report the sector the last sweep selected; adapts the probe count
  /// once per full window.
  void report_selection(int sector_id);

  /// Selections accumulated toward the next decision.
  std::size_t pending() const { return state_.window.size(); }

  /// Complete mutable state (config excluded -- the owner reconstructs
  /// with the same config). Snapshot/restore round-trips exactly: after
  /// import_state() the controller makes the identical sequence of
  /// decisions it would have made uninterrupted.
  struct State {
    std::size_t probes{0};
    std::vector<int> window;
    std::vector<int> previous_window_ids;  ///< sorted unique IDs of last window
    bool has_previous{false};

    friend bool operator==(const State&, const State&) = default;
  };
  State export_state() const { return state_; }
  void import_state(State state) { state_ = std::move(state); }

 private:
  AdaptiveProbeConfig config_;
  State state_;
};

}  // namespace talon
