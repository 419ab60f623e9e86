// Deterministic fault injection for the robustness campaign.
//
// A FaultPlan describes every fault the stack can suffer on a link --
// probe-frame loss (independent Bernoulli and bursty Gilbert-Elliott),
// SNR/RSSI corruption (outliers and floor clamping), sweep-info ring
// buffer glitches (duplicate, stale and overflow-burst entries) and lost
// or delayed SSW feedback. The plan is immutable and shared; each link
// owns one LinkFaultInjector view that draws the actual faults.
//
// Determinism contract (the same one the replay and network layers obey):
// every draw comes from a counter-based substream seeded by
// substream_seed(plan.seed, <stream tag>, link id, round). Stream tags 9-12
// (streams::kFault* in common/rng.hpp's registry) continue the family
// after the network layer's 5-8:
//   9  probe-frame loss (Bernoulli draw, then the Gilbert-Elliott chain)
//   10 SNR/RSSI corruption (per reading: snr outlier, rssi outlier, clamp)
//   11 ring-buffer faults (per entry: duplicate, stale; per sweep: overflow)
//   12 feedback faults (per attempt: drop; then delay)
// A link's fault sequence therefore depends only on (seed, link id, round,
// draw order within the round) -- never on other links, iteration order or
// the thread count -- so an entire robustness campaign replays bit for bit.
#pragma once

#include <cstdint>
#include <memory>

#include "src/common/fields.hpp"
#include "src/common/rng.hpp"

namespace talon {

/// Independent per-frame probe loss.
struct BernoulliLossConfig {
  /// Probability that any one probe reading is lost before user space
  /// sees it (on top of whatever the channel already missed).
  double probability{0.0};
};

/// Two-state Gilbert-Elliott burst-loss chain: the link flips between a
/// good and a bad state per probe frame, and each state has its own loss
/// probability. Models the correlated fades of a moving blocker, which
/// independent Bernoulli draws cannot.
struct GilbertElliottConfig {
  bool enabled{false};
  double p_good_to_bad{0.05};
  double p_bad_to_good{0.35};
  double loss_in_good{0.0};
  double loss_in_bad{0.85};
};

/// Reading-value corruption beyond the measurement model's own noise.
struct SignalCorruptionConfig {
  /// Severe outlier on the SNR reading: +- uniform(0, magnitude) dB.
  double snr_outlier_probability{0.0};
  /// Independent severe outlier on the RSSI reading.
  double rssi_outlier_probability{0.0};
  double outlier_magnitude_db{12.0};
  /// Clamp the SNR reading to `floor_db` (a stuck readout at the firmware
  /// reporting floor, Sec. 3.2).
  double floor_clamp_probability{0.0};
  double floor_db{-7.0};
};

/// Sweep-info ring buffer glitches (the patched ucode writing garbage).
struct RingFaultConfig {
  /// Push a decoded entry twice.
  double duplicate_probability{0.0};
  /// Re-push an entry left over from the previous sweep (wrong
  /// sweep_index, possibly a sector the current subset never probed).
  double stale_probability{0.0};
  /// Once per sweep: flood the ring with `overflow_burst` copies of the
  /// last entry so the oldest real readings are overwritten before user
  /// space drains them.
  double overflow_probability{0.0};
  std::size_t overflow_burst{0};
};

/// SSW feedback / sector-override installation faults.
struct FeedbackFaultConfig {
  /// Probability that one installation attempt is lost.
  double drop_probability{0.0};
  /// Retries after a dropped attempt (total attempts = max_retries + 1).
  int max_retries{3};
  /// Exponential backoff between attempts: base * 2^(attempt-1) [us].
  double backoff_base_us{100.0};
  /// Independent delivery delay on the attempt that succeeds.
  double delay_probability{0.0};
  double delay_us{500.0};

  bool any() const { return drop_probability > 0.0 || delay_probability > 0.0; }
};

struct FaultPlan {
  std::uint64_t seed{0};
  BernoulliLossConfig loss{};
  GilbertElliottConfig burst{};
  SignalCorruptionConfig corruption{};
  RingFaultConfig ring{};
  FeedbackFaultConfig feedback{};

  /// False when the plan injects nothing at all (a null plan behaves
  /// exactly like no plan).
  bool any_enabled() const;
};

/// Cumulative per-link fault counters -- the observable record of what the
/// injector actually did, comparable across runs (the determinism tests
/// assert bit-identical stats at every thread count).
struct FaultStats {
  std::uint64_t probes_lost{0};       ///< total readings dropped (both models)
  std::uint64_t burst_losses{0};      ///< subset of probes_lost from the GE chain
  std::uint64_t snr_outliers{0};
  std::uint64_t rssi_outliers{0};
  std::uint64_t floor_clamps{0};
  std::uint64_t ring_duplicates{0};
  std::uint64_t ring_stale{0};
  std::uint64_t ring_overflows{0};    ///< overflow bursts fired
  std::uint64_t feedback_drops{0};    ///< installation attempts lost
  std::uint64_t feedback_retries{0};  ///< extra attempts made
  std::uint64_t feedback_failures{0}; ///< rounds where every attempt was lost
  std::uint64_t feedback_delays{0};
  /// Simulated latency accumulated by backoff and delivery delays [us].
  double feedback_latency_us{0.0};

  /// The one field list (common/fields.hpp): +=, the snapshot record and
  /// the serve_fault_* scrape series all derive from it.
  static constexpr auto kFields = std::make_tuple(
      field("probes_lost", &FaultStats::probes_lost),
      field("burst_losses", &FaultStats::burst_losses),
      field("snr_outliers", &FaultStats::snr_outliers),
      field("rssi_outliers", &FaultStats::rssi_outliers),
      field("floor_clamps", &FaultStats::floor_clamps),
      field("ring_duplicates", &FaultStats::ring_duplicates),
      field("ring_stale", &FaultStats::ring_stale),
      field("ring_overflows", &FaultStats::ring_overflows),
      field("feedback_drops", &FaultStats::feedback_drops),
      field("feedback_retries", &FaultStats::feedback_retries),
      field("feedback_failures", &FaultStats::feedback_failures),
      field("feedback_delays", &FaultStats::feedback_delays),
      field("feedback_latency_us", &FaultStats::feedback_latency_us));

  friend bool operator==(const FaultStats&, const FaultStats&) = default;
};

/// One link's stateful view of a shared FaultPlan. Not thread-safe: a
/// link's faults are drawn by whichever single worker owns that link, in
/// protocol order (ring faults during the sweep, loss/corruption/feedback
/// when user space processes it).
class LinkFaultInjector {
 public:
  /// `plan` must be non-null; keep it immutable for the injector's life.
  LinkFaultInjector(std::shared_ptr<const FaultPlan> plan, int link_id);

  const FaultPlan& plan() const { return *plan_; }
  int link_id() const { return link_id_; }

  /// Round whose substreams the draws currently come from (0-based).
  std::uint64_t round() const { return state_.round; }

  /// Advance every fault category to the next round's substream. Call once
  /// per training round, after the round's draws are done.
  void next_round();

  // --- draws (each consumes randomness from its own category stream) ------

  /// Should this probe reading be lost? Advances the Gilbert-Elliott chain
  /// when burst loss is enabled.
  bool drop_probe();

  /// Corrupt one reading in place (outliers, floor clamp); counts what it
  /// changed.
  void corrupt_reading(double& snr_db, double& rssi_dbm);

  /// Ring faults, consulted by the firmware per decoded entry / per sweep.
  bool inject_duplicate();
  bool inject_stale();
  /// Entries to flood the ring with at sweep end; 0 = no overflow burst.
  std::size_t overflow_burst();

  /// One feedback installation attempt is lost?
  bool drop_feedback_attempt();
  /// Delivery delay of the successful attempt [us]; 0 when not delayed.
  double feedback_delay_us();

  /// Bookkeeping the session layers report into (retry/backoff accounting
  /// lives with the retry loop, not the draw).
  void note_feedback_retry(double backoff_us);
  void note_feedback_failure();

  const FaultStats& stats() const { return state_.stats; }

  /// Mutable cross-round state: the current round, the Gilbert-Elliott
  /// chain position and the cumulative stats. The four category Rngs are
  /// NOT part of the state -- they are a pure function of (plan seed,
  /// link, round) and import_state() reseeds them -- so a snapshot taken
  /// at a round boundary (right after next_round()) restores the exact
  /// fault streams the exporter would have drawn.
  struct State {
    std::uint64_t round{0};
    bool ge_bad{false};
    FaultStats stats;

    friend bool operator==(const State&, const State&) = default;
  };
  State export_state() const { return state_; }
  void import_state(const State& state) {
    state_ = state;
    reseed();
  }

 private:
  void reseed();

  std::shared_ptr<const FaultPlan> plan_;
  int link_id_;
  State state_;
  Rng loss_rng_;
  Rng corruption_rng_;
  Rng ring_rng_;
  Rng feedback_rng_;
};

}  // namespace talon
