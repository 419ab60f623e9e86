#include "src/core/tracking.hpp"

#include "src/common/error.hpp"
#include "src/common/vec3.hpp"

namespace talon {

namespace {
/// Blend two directions on the sphere: weight w toward `b`. Blending unit
/// vectors avoids every azimuth-wrap pitfall.
Direction blend(const Direction& a, const Direction& b, double w) {
  const Vec3 v = (1.0 - w) * unit_vector(a) + w * unit_vector(b);
  // Antipodal inputs could cancel; fall back to the newer direction.
  if (norm(v) < 1e-9) return b;
  return direction_of(v);
}
}  // namespace

PathTracker::PathTracker(const PathTrackerConfig& config) : config_(config) {
  TALON_EXPECTS(config_.smoothing > 0.0 && config_.smoothing <= 1.0);
  TALON_EXPECTS(config_.gate_deg > 0.0);
  TALON_EXPECTS(config_.confirm_jumps >= 1);
}

Direction PathTracker::update(const Direction& estimate) {
  std::optional<Direction>& track = state_.track;
  std::optional<Direction>& candidate = state_.jump_candidate;
  if (!track) {
    track = estimate;
    return *track;
  }
  if (angular_separation_deg(estimate, *track) <= config_.gate_deg) {
    // In-gate: smooth and clear any pending jump.
    track = blend(*track, estimate, config_.smoothing);
    state_.jump_run = 0;
    candidate.reset();
    return *track;
  }
  // Out-of-gate: hold the track, accumulate evidence for a path change.
  ++state_.jump_run;
  candidate = candidate ? blend(*candidate, estimate, config_.smoothing) : estimate;
  if (state_.jump_run >= config_.confirm_jumps) {
    track = *candidate;
    state_.jump_run = 0;
    candidate.reset();
  }
  return *track;
}

void PathTracker::reset() { state_ = State{}; }

}  // namespace talon
