// Temporal path tracking on top of per-sweep CSS estimates.
//
// The compressive *tracking* literature the paper builds on (Ramasamy et
// al., Marzi et al.) follows a path over time rather than re-estimating
// from scratch. A single sweep's estimate occasionally jumps -- a probe
// outlier or a momentary reflection lock -- and Sec. 5 notes that
// "averaging over multiple measurements is not feasible" at the raw
// measurement level because reactions must stay fast. Tracking the
// *estimate* instead gives both: an exponential smoother for small jitter,
// an angular gate against one-off jumps, and re-locking when a far
// direction persists (a real path change, e.g. blockage forcing the link
// onto a reflection).
#pragma once

#include <optional>

#include "src/common/angles.hpp"

namespace talon {

struct PathTrackerConfig {
  /// EMA weight of an accepted new estimate (1 = no smoothing).
  double smoothing{0.4};
  /// Estimates farther than this from the track are suspect [deg].
  double gate_deg{15.0};
  /// Consecutive far estimates that confirm a genuine path change.
  int confirm_jumps{3};
};

class PathTracker {
 public:
  explicit PathTracker(const PathTrackerConfig& config = {});

  /// Feed one per-sweep direction estimate; returns the tracked direction.
  Direction update(const Direction& estimate);

  /// The current track, empty before the first update (or after reset).
  const std::optional<Direction>& current() const { return state_.track; }

  const PathTrackerConfig& config() const { return config_; }

  /// Far estimates seen in a row (diagnostics).
  int pending_jumps() const { return state_.jump_run; }

  void reset();

  /// Complete mutable state (config excluded). import_state() resumes
  /// the identical track the exporter held.
  struct State {
    std::optional<Direction> track;
    std::optional<Direction> jump_candidate;
    int jump_run{0};

    friend bool operator==(const State&, const State&) = default;
  };
  State export_state() const { return state_; }
  void import_state(const State& state) { state_ = state; }

 private:
  PathTrackerConfig config_;
  State state_;
};

}  // namespace talon
