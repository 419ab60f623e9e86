// Explicit link lifecycle state machine, shared by every layer that
// tracks link health (Terragraph's production 60 GHz mesh runs the same
// four-state machine per link; SNIPPETS.md Snippet 1).
//
//                 kHealthy
//               +---------+
//               v         |
//   [Up] --kFailure--> [Unstable] --kFailure x threshold--> [Acquisition]
//     |                    |  ^-- kHealthy exits back to Up      |
//     |                    |                 kAcquireRound x window
//     |                    |                                     v
//     +----kDrop-----------+----------kDrop----------------->  [Up]
//                          |                                     |
//                          v              kIgnite                |
//                        [Down] <------------- kDrop ------------+
//                          \--kIgnite--> [Acquisition]
//
// The machine unifies what used to be two disconnected ad-hoc encodings:
//
//  * LinkSession's confidence-gated CSS -> SSW fallback (PR5): the
//    consecutive-failure trip wire, the full-sweep recovery window and
//    the exponential re-entry backoff are now transitions. kFailure from
//    Up destabilizes; repeated failures trip into Acquisition with a
//    window of recovery_rounds x backoff full-sweep rounds; each
//    kAcquireRound serves one of them, and the served window exits to
//    Up. The arithmetic is bit-for-bit the PR5 tuning (bench_fault's
//    CSS-fallback campaign is pinned to the pre-refactor results).
//  * The mesh layer's Down -> Acquiring -> Up ignition ladder (PR6):
//    controller ignition is kIgnite, the granted association sweep is
//    kAcquireRound (acquire_rounds = 1), churn outage is kDrop. The
//    numeric values of kDown/kAcquisition/kUp match the removed
//    MeshLinkState enum, so per-link reports stay stable.
//
// Every (state, event) pair either transitions (possibly a self-loop) or
// is explicitly rejected -- permitted() is the single source of truth and
// the exhaustive transition-table test walks all of it. apply() never
// throws: rejected events are counted and leave the state untouched, so
// a late event from a stale scheduler entry cannot corrupt a link.
#pragma once

#include <cstddef>
#include <cstdint>

#include "src/common/fields.hpp"

namespace talon {

/// The four lifecycle states. kDown/kAcquisition/kUp keep the numeric
/// values of the mesh layer's former MeshLinkState so persisted per-link
/// records compare stably across the refactor.
enum class LinkState : std::uint8_t {
  kDown = 0,         ///< no association; only the controller can ignite
  kAcquisition = 1,  ///< full-SSW (re)acquisition window is being served
  kUp = 2,           ///< healthy steady state (compressive training)
  kUnstable = 3,     ///< recent failures below the trip threshold
};
inline constexpr std::size_t kLinkStateCount = 4;

const char* to_string(LinkState state);

/// Stimuli the owning layer feeds the machine.
enum class LinkEvent : std::uint8_t {
  /// Controller orders (re-)association (mesh ignition wave).
  kIgnite = 0,
  /// One acquisition round was served: a granted association sweep
  /// (mesh) or a full-SSW fallback round (driver session).
  kAcquireRound = 1,
  /// A healthy tracked/compressive round: confident selection, installed.
  kHealthy = 2,
  /// An unhealthy round: confidence loss, underfilled sweep, empty
  /// drain, or a lost override install.
  kFailure = 3,
  /// Association lost outright: churn, body blockage outage.
  kDrop = 4,
};
inline constexpr std::size_t kLinkEventCount = 5;

const char* to_string(LinkEvent event);

/// What apply() did with an event.
enum class TransitionOutcome : std::uint8_t {
  kRejected = 0,  ///< not permitted in the current state; state untouched
  kHeld = 1,      ///< accepted, state unchanged (counters may advance)
  kMoved = 2,     ///< accepted, state changed
};

/// Tuned thresholds. The defaults are PR5's bench_fault tuning, carried
/// over verbatim from the former DegradationConfig flags.
struct LinkLifecycleConfig {
  /// Consecutive kFailure events before Up/Unstable trips into
  /// Acquisition. 1 trips straight from Up.
  int max_consecutive_failures{2};
  /// Acquisition rounds per trip before CSS is retried (scaled by the
  /// backoff). A zero window bounces straight back to Up.
  std::size_t recovery_rounds{6};
  /// Each trip without an intervening kHealthy doubles the window, up to
  /// recovery_rounds x this factor.
  std::size_t max_recovery_backoff{8};
  /// Acquisition rounds installed by kIgnite (mesh association = 1).
  std::size_t ignition_rounds{1};
};

/// Cumulative transition counters and time-in-state aggregates. All
/// fields are sums of deterministic per-event increments, so totals are
/// bit-comparable across runs and thread counts like FaultStats.
struct LifecycleStats {
  std::uint64_t ignitions{0};         ///< Down -> Acquisition
  std::uint64_t acquisitions{0};      ///< Acquisition -> Up (window served)
  std::uint64_t destabilizations{0};  ///< Up -> Unstable
  std::uint64_t recoveries{0};        ///< Unstable -> Up (healthy round)
  std::uint64_t trips{0};             ///< Up/Unstable -> Acquisition
  std::uint64_t drops{0};             ///< any -> Down (outage)
  std::uint64_t healthy_events{0};    ///< accepted kHealthy
  std::uint64_t failure_events{0};    ///< accepted kFailure
  std::uint64_t rejected_events{0};   ///< events permitted() refused
  /// Time accrued per state via advance(); the unit is the caller's
  /// (rounds for driver sessions, seconds for the simulators).
  double up_time{0.0};
  double unstable_time{0.0};
  double acquisition_time{0.0};
  double down_time{0.0};

  /// The one field list (common/fields.hpp). The four times export as
  /// one labelled family, serve_lifecycle_time_in_state{state="..."}.
  static constexpr auto kFields = std::make_tuple(
      field("ignitions", &LifecycleStats::ignitions),
      field("acquisitions", &LifecycleStats::acquisitions),
      field("destabilizations", &LifecycleStats::destabilizations),
      field("recoveries", &LifecycleStats::recoveries),
      field("trips", &LifecycleStats::trips),
      field("drops", &LifecycleStats::drops),
      field("healthy_events", &LifecycleStats::healthy_events),
      field("failure_events", &LifecycleStats::failure_events),
      field("rejected_events", &LifecycleStats::rejected_events),
      field("time_in_state", &LifecycleStats::up_time, "state=\"up\""),
      field("time_in_state", &LifecycleStats::unstable_time, "state=\"unstable\""),
      field("time_in_state", &LifecycleStats::acquisition_time,
            "state=\"acquisition\""),
      field("time_in_state", &LifecycleStats::down_time, "state=\"down\""));
  friend bool operator==(const LifecycleStats&, const LifecycleStats&) = default;
};

class LinkLifecycle {
 public:
  explicit LinkLifecycle(LinkLifecycleConfig config = {},
                         LinkState initial = LinkState::kUp);

  LinkState state() const { return state_.state; }

  /// The full transition contract: true iff `event` is accepted in
  /// `state`. Everything apply() does is gated on this table.
  static bool permitted(LinkState state, LinkEvent event);

  /// Feed one event. Rejected events only bump rejected_events.
  TransitionOutcome apply(LinkEvent event);

  /// Accrue `dt` (caller's unit) in the current state's time bucket.
  void advance(double dt);

  /// kFailure events since the last healthy round / served window.
  int consecutive_failures() const { return state_.consecutive_failures; }

  /// Remaining acquisition rounds of the current window (0 outside
  /// Acquisition).
  std::size_t acquisition_rounds_left() const { return state_.window_left; }

  /// Current trip-window multiplier (doubles per trip, reset by
  /// kHealthy).
  std::size_t recovery_backoff() const { return state_.backoff; }

  const LifecycleStats& stats() const { return state_.stats; }

  const LinkLifecycleConfig& config() const { return config_; }

  /// Complete mutable state (config excluded). A machine restored via
  /// import_state() accepts and rejects exactly the events the exporter
  /// would have, including mid-backoff acquisition windows.
  struct State {
    LinkState state{LinkState::kUp};
    int consecutive_failures{0};
    std::size_t window_left{0};
    std::size_t backoff{1};
    LifecycleStats stats;

    friend bool operator==(const State&, const State&) = default;
  };
  State export_state() const { return state_; }
  void import_state(const State& state) { state_ = state; }

 private:
  LinkLifecycleConfig config_;
  State state_;
};

}  // namespace talon
