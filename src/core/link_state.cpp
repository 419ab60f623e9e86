#include "src/core/link_state.hpp"

#include <algorithm>

namespace talon {

const char* to_string(LinkState state) {
  switch (state) {
    case LinkState::kDown: return "down";
    case LinkState::kAcquisition: return "acquisition";
    case LinkState::kUp: return "up";
    case LinkState::kUnstable: return "unstable";
  }
  return "?";
}

const char* to_string(LinkEvent event) {
  switch (event) {
    case LinkEvent::kIgnite: return "ignite";
    case LinkEvent::kAcquireRound: return "acquire_round";
    case LinkEvent::kHealthy: return "healthy";
    case LinkEvent::kFailure: return "failure";
    case LinkEvent::kDrop: return "drop";
  }
  return "?";
}

LinkLifecycle::LinkLifecycle(LinkLifecycleConfig config, LinkState initial)
    : config_(config), state_{.state = initial} {}

bool LinkLifecycle::permitted(LinkState state, LinkEvent event) {
  switch (state) {
    case LinkState::kDown:
      // A dead link can only be re-ignited by the controller; health
      // events without an association are stale and must be refused.
      return event == LinkEvent::kIgnite;
    case LinkState::kAcquisition:
      // While a full-SSW window is being served the only legal stimuli
      // are serving one of its rounds or losing the association.
      return event == LinkEvent::kAcquireRound || event == LinkEvent::kDrop;
    case LinkState::kUp:
    case LinkState::kUnstable:
      return event == LinkEvent::kHealthy || event == LinkEvent::kFailure ||
             event == LinkEvent::kDrop;
  }
  return false;
}

TransitionOutcome LinkLifecycle::apply(LinkEvent event) {
  if (!permitted(state_.state, event)) {
    ++state_.stats.rejected_events;
    return TransitionOutcome::kRejected;
  }
  switch (event) {
    case LinkEvent::kIgnite: {
      ++state_.stats.ignitions;
      state_.consecutive_failures = 0;
      state_.window_left = config_.ignition_rounds;
      if (state_.window_left == 0) {
        // Degenerate zero-round ignition: association is instantaneous.
        ++state_.stats.acquisitions;
        state_.state = LinkState::kUp;
      } else {
        state_.state = LinkState::kAcquisition;
      }
      return TransitionOutcome::kMoved;
    }
    case LinkEvent::kAcquireRound: {
      if (--state_.window_left == 0) {
        ++state_.stats.acquisitions;
        state_.consecutive_failures = 0;
        state_.state = LinkState::kUp;
        return TransitionOutcome::kMoved;
      }
      return TransitionOutcome::kHeld;
    }
    case LinkEvent::kHealthy: {
      ++state_.stats.healthy_events;
      state_.consecutive_failures = 0;
      state_.backoff = 1;
      if (state_.state == LinkState::kUnstable) {
        ++state_.stats.recoveries;
        state_.state = LinkState::kUp;
        return TransitionOutcome::kMoved;
      }
      return TransitionOutcome::kHeld;
    }
    case LinkEvent::kFailure: {
      ++state_.stats.failure_events;
      if (++state_.consecutive_failures >= config_.max_consecutive_failures) {
        // Trip: install a full-SSW window scaled by the backoff, then
        // double the backoff for the next trip (kHealthy resets it).
        ++state_.stats.trips;
        state_.window_left = config_.recovery_rounds * state_.backoff;
        state_.backoff = std::min(state_.backoff * 2, config_.max_recovery_backoff);
        state_.consecutive_failures = 0;
        if (state_.window_left > 0) {
          state_.state = LinkState::kAcquisition;
          return TransitionOutcome::kMoved;
        }
        // Zero-length window: nothing to serve, bounce straight back to
        // steady state (the legacy encoding never entered fallback).
        if (state_.state == LinkState::kUnstable) {
          state_.state = LinkState::kUp;
          return TransitionOutcome::kMoved;
        }
        return TransitionOutcome::kHeld;
      }
      if (state_.state == LinkState::kUp) {
        ++state_.stats.destabilizations;
        state_.state = LinkState::kUnstable;
        return TransitionOutcome::kMoved;
      }
      return TransitionOutcome::kHeld;
    }
    case LinkEvent::kDrop: {
      // Outage wipes the failure streak and any pending window but keeps
      // the backoff: a link that was flapping before the drop should not
      // get a fresh short window right after re-ignition.
      ++state_.stats.drops;
      state_.consecutive_failures = 0;
      state_.window_left = 0;
      state_.state = LinkState::kDown;
      return TransitionOutcome::kMoved;
    }
  }
  return TransitionOutcome::kRejected;
}

void LinkLifecycle::advance(double dt) {
  switch (state_.state) {
    case LinkState::kDown: state_.stats.down_time += dt; return;
    case LinkState::kAcquisition: state_.stats.acquisition_time += dt; return;
    case LinkState::kUp: state_.stats.up_time += dt; return;
    case LinkState::kUnstable: state_.stats.unstable_time += dt; return;
  }
}

}  // namespace talon
