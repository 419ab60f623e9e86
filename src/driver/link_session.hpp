// Per-link mutable selection state.
//
// One LinkSession is the user-space side of ONE AP-STA link: the probe
// subset policy, the adaptive probe-count controller, the optional path
// tracker, the RNG stream and the round counter -- everything that
// evolves as that link trains. The immutable heavy data (pattern table,
// response matrix, norm cache) stays behind the shared PatternAssets the
// session's selector rides, so a session is cheap enough to keep per user
// in a dense deployment. CssDaemon owns a map of these and routes each
// driver's sweeps to its session.
//
// Robustness extensions (the fault-injection campaign, common/fault.hpp):
// when the config carries a FaultPlan the session owns a LinkFaultInjector
// shared with its driver's firmware -- probe loss and reading corruption
// are applied to the drained sweep, and the sector-override installation
// can be dropped, retried with exponential backoff, and ultimately fail.
// When graceful degradation is enabled, every compressive selection is
// confidence-gated (CssResult::confidence, the peak-to-second-peak ratio
// of the Eq. 5 surface) and link health is tracked by the shared
// LinkLifecycle machine (core/link_state.hpp): unhealthy rounds -- a
// withheld low-confidence or underfilled estimate, a css-internal argmax
// fallback, an empty sweep, or a lost override install -- feed kFailure;
// repeated failures trip the machine into Acquisition, which the session
// serves as full SSW sweeps (one kAcquireRound per round) until the
// window drains and CSS is retried with a clean slate. Healthy rounds
// feed kHealthy, resetting the streak and the exponential re-entry
// backoff. in_fallback() is simply state() == kAcquisition.
#pragma once

#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>

#include "src/common/error.hpp"
#include "src/common/fault.hpp"
#include "src/core/adaptive.hpp"
#include "src/core/css.hpp"
#include "src/core/link_state.hpp"
#include "src/core/pattern_assets.hpp"
#include "src/core/subset_policy.hpp"
#include "src/core/tracking.hpp"
#include "src/driver/wil6210.hpp"

namespace talon {

/// Confidence-gated CSS -> SSW degradation (see the state machine above).
struct DegradationConfig {
  bool enabled{false};
  /// Peak-to-second-peak ratio below which a compressive selection is
  /// distrusted: the estimate is reported but NOT installed -- the link
  /// keeps its current beam -- and the round counts toward the failure
  /// trip wire. Tuned on the conference-room campaign (bench_fault):
  /// genuine multipath keeps healthy ratios near 1.0, so the bar sits
  /// just above it; higher bars freeze the beam on rounds where the
  /// compressive pick was actually fine.
  double min_confidence{1.01};
  /// A sweep that returned fewer than this fraction of the requested
  /// probes under-determines Eq. 5 no matter how peaked the surface looks
  /// (cf. Fig. 9's collapse below ~8 probes): such rounds are withheld
  /// like low-confidence ones. This is what stops confidently-wrong
  /// selections from 1-2 surviving readings at extreme loss rates.
  double min_probe_fraction{0.5};
  /// Consecutive unhealthy rounds before the session abandons compressive
  /// probing and schedules full SSW sweeps.
  int max_consecutive_failures{2};
  /// Full-sweep rounds to run before giving CSS another chance. The
  /// window is long relative to the trip threshold so a persistently
  /// faulty link spends most rounds on the full sweep (bench_fault shows
  /// this is what converges to SSW quality at extreme loss).
  std::size_t recovery_rounds{6};
  /// Each fallback re-entry without an intervening healthy CSS round
  /// doubles the recovery window, up to recovery_rounds x this factor:
  /// under persistent faults the CSS retry duty-cycle decays towards
  /// zero and the link converges to full-sweep behaviour. A healthy
  /// round resets the window.
  std::size_t max_recovery_backoff{8};
};

/// Cumulative per-link degradation counters (bit-comparable across runs,
/// like FaultStats).
struct DegradationStats {
  std::uint64_t css_rounds{0};         ///< healthy compressive selections
  std::uint64_t failed_rounds{0};      ///< unhealthy CSS-mode rounds, any cause
  std::uint64_t low_confidence_events{0};
  std::uint64_t underfilled_rounds{0};  ///< sweeps below min_probe_fraction
  std::uint64_t fallback_entries{0};   ///< CSS -> full-sweep transitions
  std::uint64_t full_sweep_rounds{0};  ///< rounds served by the SSW fallback

  /// The one field list (common/fields.hpp).
  static constexpr auto kFields = std::make_tuple(
      field("css_rounds", &DegradationStats::css_rounds),
      field("failed_rounds", &DegradationStats::failed_rounds),
      field("low_confidence_events", &DegradationStats::low_confidence_events),
      field("underfilled_rounds", &DegradationStats::underfilled_rounds),
      field("fallback_entries", &DegradationStats::fallback_entries),
      field("full_sweep_rounds", &DegradationStats::full_sweep_rounds));
  friend bool operator==(const DegradationStats&, const DegradationStats&) = default;
};

struct CssDaemonConfig {
  /// Fixed probe count when no adaptive controller is enabled.
  std::size_t probes{14};
  bool adaptive{false};
  AdaptiveProbeConfig adaptive_config{};
  /// Smooth the per-sweep direction estimates with a PathTracker and run
  /// Eq. 4 on the *tracked* direction (rejects one-off estimate jumps,
  /// re-locks on persistent path changes such as blockage).
  bool track_path{false};
  PathTrackerConfig tracker_config{};
  /// Fault plan for the robustness campaign; null (the default) injects
  /// nothing and leaves every hot path untouched.
  std::shared_ptr<const FaultPlan> faults{};
  /// Graceful CSS -> SSW degradation; disabled by default.
  DegradationConfig degradation{};
};

/// Complete serializable state of one LinkSession, captured between
/// rounds (never mid-sweep). Everything that influences future
/// selections is here -- the RNG stream, the adaptive controller, the
/// lifecycle machine with its mid-backoff acquisition window, the
/// tracker, the fault injector's cross-round state -- so a session
/// reconstructed with the same (assets, config, link id) and this state
/// produces byte-identical subsequent selections. The snapshot codec
/// (driver/snapshot.hpp) serializes it.
struct LinkSessionState {
  int link_id{0};
  std::uint64_t rounds{0};
  std::uint64_t dropped_probes{0};
  std::vector<int> warned_unknown;
  bool warn_cap_announced{false};
  std::string rng_state;
  AdaptiveProbeController::State controller;
  LinkLifecycle::State lifecycle;
  DegradationStats degradation;
  /// Present iff the session tracks a path (config.track_path).
  std::optional<PathTracker::State> tracker;
  /// Present iff the session owns a fault injector.
  std::optional<LinkFaultInjector::State> injector;
  /// Last sector override delivered (never set when none was yet).
  std::optional<int> last_installed_sector;

  friend bool operator==(const LinkSessionState&, const LinkSessionState&) = default;
};

class LinkSession {
 public:
  /// Binds to one driver (one chip). Loads the research patches when the
  /// firmware does not have them yet. `assets` is the shared immutable
  /// pattern data; the session only ever reads it. `link_id` keys this
  /// link's fault substreams (and diagnostics); the daemon passes the id
  /// it registered the session under.
  LinkSession(Wil6210Driver& driver, std::shared_ptr<const PatternAssets> assets,
              const CssDaemonConfig& config, Rng rng, int link_id = 0);

  /// Headless session: no chip behind it. Sweeps arrive as externally
  /// produced reports (process_report()) and the selected sector is
  /// recorded in last_installed_sector() instead of being forced into a
  /// firmware. This is what lets a serving daemon hold tens of thousands
  /// of link sessions: a FullMacFirmware carries hundreds of kilobytes of
  /// chip memory per link, a headless session a few hundred bytes.
  /// Selection arithmetic is identical to the driver-backed mode.
  LinkSession(std::shared_ptr<const PatternAssets> assets,
              const CssDaemonConfig& config, Rng rng, int link_id = 0);

  /// Probe subset to use for this link's next training round: a policy
  /// draw of current_probes() sectors, or every transmit sector while the
  /// session is degraded to full-sweep mode.
  std::vector<int> next_probe_subset();

  /// Consume the just-finished round: read the ring buffer and hand it to
  /// process_report(). Requires a driver-backed session.
  std::optional<CssResult> process_sweep();

  /// Consume one sweep report: count the round, drop unusable readings,
  /// apply the fault plan (if any), select -- compressively, or with the
  /// stock SSW argmax while degraded -- gate, and install the sector
  /// override (with bounded retry under feedback faults). Returns the
  /// selection, or nullopt when nothing was decoded (the previous
  /// override stays). Works on headless AND driver-backed sessions (the
  /// serving daemon feeds both kinds the same way).
  std::optional<CssResult> process_report(std::vector<SectorReading> readings);

  /// Number of sweeps processed on this link.
  std::size_t rounds() const { return rounds_; }

  /// Cumulative readings dropped before selection: readings whose sector
  /// ID has no slot in the shared pattern table (firmware reported a
  /// sector the codebook was never measured for), and readings Eq. 5
  /// cannot use (CorrelationEngine::numerically_usable: a NaN or infinite
  /// value, or one whose squared probe value overflows or underflows to
  /// zero). The counter is the source of truth; stderr warnings about
  /// unknown IDs are capped at kMaxWarnedUnknownIds distinct IDs so a
  /// misconfigured codebook cannot flood the log from the sweep path.
  std::size_t dropped_probes() const { return dropped_probes_; }

  /// Warn-once cap on distinct unknown sector IDs.
  static constexpr std::size_t kMaxWarnedUnknownIds = 16;

  std::size_t current_probes() const;

  /// The smoothed path direction (empty unless track_path is on and at
  /// least one valid estimate arrived).
  const std::optional<Direction>& tracked_direction() const;

  /// The shared assets this session's selector rides.
  const std::shared_ptr<const PatternAssets>& assets() const { return css_.assets(); }

  /// Swap this session onto a different (e.g. freshly recalibrated)
  /// assets generation. The kernel workspace is reset along with the
  /// selector, because it may cache a response panel keyed only by the
  /// probe-slot sequence, which would silently reuse gains from the
  /// previous table; the tracker is kept, so the smoothed path survives
  /// the swap. Must be called between rounds.
  void rebind_assets(std::shared_ptr<const PatternAssets> next);

  /// True when no chip sits behind this session (report-driven only).
  bool headless() const { return driver_ == nullptr; }

  /// The most recent sector override delivered (recorded in both modes;
  /// empty until the first install).
  const std::optional<int>& last_installed_sector() const {
    return last_installed_sector_;
  }

  Wil6210Driver& driver() {
    TALON_EXPECTS(driver_ != nullptr);
    return *driver_;
  }

  int link_id() const { return link_id_; }

  // --- snapshot/restore ------------------------------------------------------

  /// Capture the complete mutable state. Must be called between rounds;
  /// with a fault injector attached this coincides with a round
  /// boundary, where the injector's category streams are a pure function
  /// of its round counter.
  LinkSessionState export_state() const;

  /// Restore state captured by export_state() on a session built with
  /// the same (assets, config). The state's link id must match this
  /// session's. Subsequent selections are byte-identical to the
  /// exporter's. Throws SnapshotError on a link-id or shape mismatch
  /// (e.g. tracker state for a non-tracking session).
  void import_state(const LinkSessionState& state);

  // --- robustness observability ---------------------------------------------

  /// True while the session is degraded to full SSW sweeps (the shared
  /// lifecycle machine is serving an Acquisition window).
  bool in_fallback() const {
    return lifecycle_.state() == LinkState::kAcquisition;
  }

  /// The lifecycle machine behind in_fallback(): state, transition
  /// counters and time-in-state aggregates (unit: rounds). Inert -- stays
  /// kUp with zero counters -- unless degradation is enabled.
  const LinkLifecycle& lifecycle() const { return lifecycle_; }

  const LifecycleStats& lifecycle_stats() const { return lifecycle_.stats(); }

  /// This link's fault counters (all zero when no plan is installed).
  FaultStats fault_stats() const {
    return injector_ ? injector_->stats() : FaultStats{};
  }

  const DegradationStats& degradation_stats() const { return degradation_stats_; }

  /// The injector shared with this link's firmware; null without a plan.
  const std::shared_ptr<LinkFaultInjector>& fault_injector() const {
    return injector_;
  }

 private:
  /// The shared ctor: a null driver makes a headless session.
  LinkSession(Wil6210Driver* driver, std::shared_ptr<const PatternAssets> assets,
              const CssDaemonConfig& config, Rng rng, int link_id);

  void note_unknown_sectors(std::span<const SectorReading> readings);
  /// Remove (and count in dropped_probes_) the readings Eq. 5 cannot use,
  /// so a hostile report can neither trip the kernel's norm check nor
  /// install a selection computed from infinities.
  void drop_unusable_readings(std::vector<SectorReading>& readings);
  /// Probe loss + reading corruption on the drained sweep, in order.
  void apply_reading_faults(std::vector<SectorReading>& readings);
  /// Install the override; bounded retry with exponential backoff under
  /// feedback faults. False when every attempt was lost.
  bool install_selection(int sector_id);
  /// Record the override and push it to the chip when one is attached.
  void deliver_selection(int sector_id);
  /// Advance the fault substreams and the degradation state machine.
  void finish_round(bool healthy, bool full_sweep_round);

  Wil6210Driver* driver_;
  CompressiveSectorSelector css_;
  CssDaemonConfig config_;
  RandomSubsetPolicy policy_;
  AdaptiveProbeController controller_;
  /// The kernel scratch css_ selects in (zero allocations once warm).
  CorrelationWorkspace ws_;
  /// Present iff track_path: smooths each Eq. 3 estimate before Eq. 4.
  std::optional<PathTracker> tracker_;
  Rng rng_;
  int link_id_{0};
  std::size_t rounds_{0};
  std::size_t dropped_probes_{0};
  /// Unknown sector IDs already warned about (warn once per ID, capped).
  std::set<int> warned_unknown_;
  bool warn_cap_announced_{false};
  std::shared_ptr<LinkFaultInjector> injector_;
  /// The Up/Unstable/Acquisition/Down machine replacing the old ad-hoc
  /// failure-streak/recovery-window/backoff counters. Sessions start Up
  /// (an associated link) and never see kIgnite/kDrop -- those belong to
  /// the mesh controller layer.
  LinkLifecycle lifecycle_;
  DegradationStats degradation_stats_;
  std::optional<int> last_installed_sector_;
};

}  // namespace talon
