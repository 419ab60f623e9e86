#include "src/sim/network.hpp"

#include <algorithm>
#include <cmath>

#include "src/antenna/codebook.hpp"
#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/mac/timing.hpp"
#include "src/sim/contention.hpp"
#include "src/sim/event_engine.hpp"

namespace talon {

namespace {

// Substream stream tags of the network simulator, from the
// uniqueness-checked registry in common/rng.hpp. Every coordinate tuple
// includes the link id, which is what makes per-link randomness
// independent of K, of iteration order, and of the thread count.
constexpr std::uint64_t kDeviceStream = streams::kNetworkDevice;
constexpr std::uint64_t kChannelStream = streams::kNetworkChannel;
constexpr std::uint64_t kSessionStream = streams::kNetworkSession;
constexpr std::uint64_t kPhaseStream = streams::kNetworkPhase;

// Priority phases of one training round on the event engine: the
// commuting per-link phase first (sweep, select, install), then the
// serial channel arbitration that consumes the round's outputs.
// Priorities are barriers, so every selection is installed before
// contention accounts the round.
constexpr int kLinkPhase = 0;
constexpr int kContentionPhase = 1;

std::uint64_t link_salt(const NetworkConfig& config, std::size_t link) {
  return link < config.link_seed_salts.size() ? config.link_seed_salts[link] : 0;
}

}  // namespace

NetworkSimulator::NetworkSimulator(NetworkConfig config,
                                   const Environment& environment,
                                   std::shared_ptr<const PatternAssets> assets)
    : config_(std::move(config)),
      environment_(&environment),
      daemon_(std::move(assets), config_.session) {
  TALON_EXPECTS(config_.links >= 1);
  TALON_EXPECTS(config_.rounds >= 1);
  TALON_EXPECTS(config_.trainings_per_second > 0.0);
  TALON_EXPECTS(config_.link_distance_m > 0.0);

  const double period_s = 1.0 / config_.trainings_per_second;
  // Pairs sit on a grid; the x pitch leaves pair_spacing_m of clearance
  // between one pair's STA and the next pair's AP.
  const int cols = static_cast<int>(
      std::ceil(std::sqrt(static_cast<double>(config_.links))));
  const double pitch_x = config_.link_distance_m + config_.pair_spacing_m;

  links_.reserve(static_cast<std::size_t>(config_.links));
  for (int l = 0; l < config_.links; ++l) {
    const double ap_x = (l % cols) * pitch_x;
    const double ap_y = (l / cols) * config_.pair_spacing_m;

    Link link;
    NodeConfig ap;
    ap.id = 2 * l + 1;
    ap.device_seed = substream_seed(config_.seed, kDeviceStream,
                                    static_cast<std::uint64_t>(l), 0);
    ap.pose = EndpointPose{
        .position = {ap_x, ap_y, 1.0},
        .orientation = DeviceOrientation(0.0, 0.0),  // facing its STA (+x)
    };
    link.initiator = std::make_unique<Node>(ap);

    NodeConfig sta;
    sta.id = 2 * l + 2;
    sta.device_seed = substream_seed(config_.seed, kDeviceStream,
                                     static_cast<std::uint64_t>(l), 1);
    sta.pose = EndpointPose{
        .position = {ap_x + config_.link_distance_m, ap_y, 1.0},
        .orientation = DeviceOrientation(180.0, 0.0),  // facing back at the AP
    };
    link.responder = std::make_unique<Node>(sta);

    link.driver = std::make_unique<Wil6210Driver>(link.responder->firmware());
    link.phase_s = Rng(substream_seed(config_.seed, kPhaseStream,
                                      static_cast<std::uint64_t>(l)))
                       .uniform(0.0, period_s);

    // The session loads the research patches into the responder firmware
    // (shared read-only images) and carries all of this link's mutable
    // selection state.
    daemon_.add_link(l, *link.driver,
                     Rng(substream_seed(config_.seed, kSessionStream,
                                        static_cast<std::uint64_t>(l),
                                        link_salt(config_, l))));
    links_.push_back(std::move(link));
  }
}

void NetworkSimulator::train_link(std::size_t l, std::size_t round,
                                  LinkRoundOutcome& out) {
  LinkSession& session = daemon_.session(static_cast<int>(l));
  const std::vector<int> subset = session.next_probe_subset();
  out.probes = subset.size();

  LinkSimulator link(*environment_, config_.radio, config_.measurement,
                     Rng(substream_seed(config_.seed, kChannelStream,
                                        static_cast<std::uint64_t>(l), round)));
  const MutualTrainingResult training =
      link.mutual_training(*links_[l].initiator, *links_[l].responder,
                           probing_burst_schedule(subset));
  out.training_success = training.success;

  // User space: drain the responder's ring, select, and install the
  // override that shapes the next round's feedback. Only this link's
  // session and the thread-safe panel cache are touched.
  const std::optional<CssResult> selection = session.process_sweep();
  if (!selection) return;
  out.selected = true;
  out.sector_id = selection->sector_id;
  out.snr_db = link.true_snr_db(*links_[l].initiator, out.sector_id,
                                *links_[l].responder, kRxQuasiOmniSectorId);
}

NetworkRunResult NetworkSimulator::run(const ThroughputModel& throughput) {
  const TimingModel timing;
  const double period_s = 1.0 / config_.trainings_per_second;
  const std::size_t k = links_.size();

  NetworkRunResult result;
  result.rounds.resize(config_.rounds);
  for (NetworkRound& round : result.rounds) round.links.resize(k);

  // The compatibility facade over the discrete-event core: round r is one
  // engine timestamp r * period. The link phase is K commuting per-link
  // events (each worker touches only its own link's nodes, firmware and
  // session -- the same ownership rule the old parallel_for obeyed --
  // plus the shared assets' thread-safe panel cache), and the contention
  // phase is one event of the channel-arbiter
  // entity, which serializes the round's trainings with the exact
  // arithmetic of the round-based loop. Selections, deferrals and airtime
  // are bit-identical to the pre-engine simulator at any thread count.
  EventEngine engine(EventEngineConfig{.threads = config_.threads});
  std::vector<EntityId> link_entities;
  link_entities.reserve(k);
  for (std::size_t l = 0; l < k; ++l) {
    link_entities.push_back(engine.add_entity("link-" + std::to_string(l)));
  }
  const EntityId arbiter_entity = engine.add_entity("channel-arbiter");
  ChannelArbiter arbiter;

  for (std::size_t r = 0; r < config_.rounds; ++r) {
    const double round_start_s = static_cast<double>(r) * period_s;
    NetworkRound& round = result.rounds[r];
    for (std::size_t l = 0; l < k; ++l) {
      engine.schedule(
          EventSpec{.time_s = round_start_s,
                    .entity = link_entities[l],
                    .priority = kLinkPhase,
                    .commuting = true},
          [this, l, r, &round](EventContext&) { train_link(l, r, round.links[l]); });
    }
    engine.schedule(
        EventSpec{.time_s = round_start_s,
                  .entity = arbiter_entity,
                  .priority = kContentionPhase,
                  .commuting = false},
        [this, r, k, period_s, &timing, &round, &arbiter,
         &result](EventContext&) {
          // Channel phase: serialize this round's K trainings on the one
          // shared channel (quasi-omni reception means a sweep occupies
          // it for everyone). The arbiter entity carries the channel-free
          // time across rounds, so a saturated channel staggers later
          // rounds.
          for (std::size_t l = 0; l < k; ++l) {
            const double desired_s =
                static_cast<double>(r) * period_s + links_[l].phase_s;
            const double duration_s =
                timing.mutual_training_time_ms(
                    static_cast<int>(round.links[l].probes)) /
                1000.0;
            arbiter.submit(static_cast<std::uint64_t>(l), desired_s, duration_s);
          }
          const ChannelArbiter::Outcome outcome = arbiter.arbitrate();
          for (const ChannelArbiter::Grant& grant : outcome.grants) {
            LinkRoundOutcome& out = round.links[grant.key];
            out.desired_start_s = grant.desired_s;
            out.actual_start_s = grant.actual_s;
          }
          round.busy_time_s = outcome.busy_time_s;
          round.deferred = outcome.deferred;
          round.worst_defer_ms = outcome.worst_defer_ms;

          result.total_trainings += static_cast<int>(k);
          result.deferred_trainings += outcome.deferred;
          result.worst_defer_ms =
              std::max(result.worst_defer_ms, outcome.worst_defer_ms);
        });
  }
  engine.run();

  // Airtime accounting over the simulated horizon (contention model
  // convention: trainings pushed past it still count up to the horizon).
  const double horizon_s = static_cast<double>(config_.rounds) * period_s;
  double busy_total_s = 0.0;
  for (const NetworkRound& round : result.rounds) busy_total_s += round.busy_time_s;
  result.training_airtime_share = std::min(busy_total_s, horizon_s) / horizon_s;

  double snr_sum = 0.0;
  double tput_sum = 0.0;
  std::size_t selections = 0;
  for (const NetworkRound& round : result.rounds) {
    for (const LinkRoundOutcome& out : round.links) {
      if (!out.selected) continue;
      snr_sum += out.snr_db;
      tput_sum += throughput.app_throughput_mbps(out.snr_db);
      ++selections;
    }
  }
  // A run can end with no valid selection at all (e.g. a fault plan that
  // drops every probe); the means stay at their zero defaults instead of
  // dividing by zero.
  if (selections > 0) {
    result.mean_selected_snr_db = snr_sum / static_cast<double>(selections);
    result.goodput_per_link_mbps = (tput_sum / static_cast<double>(selections)) *
                                   (1.0 - result.training_airtime_share) /
                                   static_cast<double>(k);
  }
  result.fault_totals = daemon_.total_fault_stats();
  result.degradation_totals = daemon_.total_degradation_stats();
  result.lifecycle_totals = daemon_.total_lifecycle_stats();
  return result;
}

}  // namespace talon
