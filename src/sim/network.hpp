// Multi-link dense-deployment simulator (the Sec. 7 regime, simulated).
//
// K AP-STA pairs share one Environment and one mm-wave channel. Every
// round each pair runs a mutual TXSS training with a CSS probing subset;
// the pair's LinkSession (owned by one shared CssDaemon) drains the
// responder's sweep-info ring, runs compressive selection on the shared
// PatternAssets, and installs the sector override that steers the next
// round's feedback -- one process_sweep() call per link and round, as
// the station's own host would run it. Because quasi-omni reception
// makes every sweep pollute the whole channel, the round's K trainings
// are serialized on the single channel with sim/contention's arithmetic
// -- deferrals and airtime fall out of the same model the closed-form
// estimate uses.
//
// Since the discrete-event refactor this class is a thin compatibility
// facade over sim/event_engine: round r is one engine timestamp, each
// link's training and selection is one event of a commuting batch (one
// link entity per worker), and the contention phase is a
// channel-arbiter entity event (sim/contention's ChannelArbiter). The
// facade's selections, deferrals and airtime are bit-identical to the
// pre-engine round-based loop at any thread count (pinned by
// tests/sim/test_network.cpp's golden sequence).
//
// Determinism contract: all randomness is drawn from substream_seed
// families whose coordinates are (stream tag, link id, round); a link's
// state (nodes, firmware, session RNG, adaptive controller, tracker) is
// touched only by the worker that owns its entity's events, and the
// shared panel cache returns the same panel whichever worker builds it,
// so results are bit-identical at any thread count.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/channel/environment.hpp"
#include "src/driver/css_daemon.hpp"
#include "src/phy/throughput.hpp"
#include "src/sim/linksim.hpp"
#include "src/sim/node.hpp"

namespace talon {

struct NetworkConfig {
  /// Number of co-channel AP-STA pairs (K).
  int links{4};
  /// Interleaved mutual-training rounds to simulate.
  std::size_t rounds{10};
  /// Trainings per second each pair schedules; one round spans one period.
  double trainings_per_second{1.0};
  /// AP-to-STA distance within a pair [m].
  double link_distance_m{3.0};
  /// Grid spacing between neighbouring pairs [m].
  double pair_spacing_m{2.0};
  RadioConfig radio{};
  MeasurementModelConfig measurement{};
  /// Per-link session defaults (probe count, adaptive controller, tracking).
  CssDaemonConfig session{};
  std::uint64_t seed{1};
  /// Worker threads for the per-round link fan-out; <= 0 uses the default.
  int threads{0};
  /// Optional per-link RNG salt (index = link id, missing = 0). Folded
  /// into that link's session substream only -- perturbing link i must
  /// not change any other link's selections (the isolation tests rely on
  /// this).
  std::vector<std::uint64_t> link_seed_salts{};
};

/// One link's outcome in one round.
struct LinkRoundOutcome {
  /// The mutual TXSS completed (sweeps + feedback + ACK all delivered).
  bool training_success{false};
  /// CSS produced a selection from this round's probes.
  bool selected{false};
  /// Selected initiator TX sector (valid when `selected`).
  int sector_id{-1};
  /// True link SNR at the selected sector [dB] (valid when `selected`).
  double snr_db{0.0};
  /// Probes this link swept this round.
  std::size_t probes{0};
  /// When the link wanted to train vs. when the channel let it [s].
  double desired_start_s{0.0};
  double actual_start_s{0.0};
};

struct NetworkRound {
  /// Indexed by link id.
  std::vector<LinkRoundOutcome> links;
  /// Channel time this round's trainings occupied [s].
  double busy_time_s{0.0};
  int deferred{0};
  double worst_defer_ms{0.0};
};

struct NetworkRunResult {
  std::vector<NetworkRound> rounds;
  /// Fraction of the simulated horizon spent beam training.
  double training_airtime_share{0.0};
  int total_trainings{0};
  int deferred_trainings{0};
  double worst_defer_ms{0.0};
  /// Mean true SNR over all valid selections [dB].
  double mean_selected_snr_db{0.0};
  /// Mean data goodput per link [Mbps]: the per-link throughput at its
  /// selected sectors, scaled by the data airtime left after training and
  /// shared round-robin by the K pairs (the contention model's convention).
  double goodput_per_link_mbps{0.0};
  /// Sum of all links' fault counters (all zero when the session config
  /// carries no fault plan).
  FaultStats fault_totals{};
  /// Sum of all links' degradation counters (all zero when degradation is
  /// disabled).
  DegradationStats degradation_totals{};
  /// Sum of all links' lifecycle transition counters and time-in-state
  /// aggregates (unit: rounds); zero unless degradation is enabled.
  /// Bit-comparable across thread counts like fault_totals.
  LifecycleStats lifecycle_totals{};
};

class NetworkSimulator {
 public:
  /// Places 2K nodes on a grid inside `environment` and registers one
  /// LinkSession per pair with a single daemon over `assets` (the shared
  /// immutable pattern data every session reads). The environment must
  /// outlive the simulator.
  NetworkSimulator(NetworkConfig config, const Environment& environment,
                   std::shared_ptr<const PatternAssets> assets);

  /// Simulate config.rounds interleaved training rounds.
  NetworkRunResult run(const ThroughputModel& throughput = ThroughputModel{});

  int link_count() const { return static_cast<int>(links_.size()); }

  CssDaemon& daemon() { return daemon_; }
  const CssDaemon& daemon() const { return daemon_; }

  std::shared_ptr<const PatternAssets> assets() const { return daemon_.assets(); }

  const Node& initiator(int link) const { return *links_[link].initiator; }
  const Node& responder(int link) const { return *links_[link].responder; }

 private:
  struct Link {
    std::unique_ptr<Node> initiator;  ///< AP side: swept toward the STA.
    std::unique_ptr<Node> responder;  ///< STA side: measures and selects.
    std::unique_ptr<Wil6210Driver> driver;  ///< bound to the responder.
    /// Schedule jitter within the training period (fixed per link).
    double phase_s{0.0};
  };

  /// One link's round (the commuting event body): sweep, select from the
  /// drained ring, install the override, and record the outcome.
  void train_link(std::size_t link, std::size_t round, LinkRoundOutcome& out);

  NetworkConfig config_;
  const Environment* environment_;
  CssDaemon daemon_;
  std::vector<Link> links_;
};

}  // namespace talon
