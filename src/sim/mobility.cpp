#include "src/sim/mobility.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "src/antenna/codebook.hpp"
#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/common/stats.hpp"
#include "src/driver/link_session.hpp"
#include "src/mac/schedule.hpp"
#include "src/sim/event_engine.hpp"
#include "src/sim/scenario.hpp"

namespace talon {

namespace {

// Priority phases of one training slot: the world entities publish first,
// the arm entities read the published snapshot.
constexpr int kWorldPhase = 0;
constexpr int kArmPhase = 1;

/// Exponential gap with the given rate, from one indexed substream draw.
/// Floored at a nanosecond: a zero gap would ask the engine to schedule
/// into the executing batch, which it rejects.
double exponential_gap(Rng& rng, double rate_hz) {
  return std::max(-std::log1p(-rng.uniform(0.0, 1.0)) / rate_hz, 1e-9);
}

/// The world snapshot the phase-0 entities publish and the phase-1 arms
/// copy. Fields are partitioned by writer (walker: pose; blockage:
/// blocked; churn: reflector_enabled), so the phase-0 events commute.
struct WorldState {
  Vec3 sta_position;
  double sta_yaw_deg{180.0};
  bool blocked{false};
  std::vector<char> reflector_enabled;
};

/// One selection strategy's private rig: its own venue (nodes +
/// environment copy), channel, driver, link session, and episode tracker. Arm
/// events touch nothing outside their own rec (plus the read-only world
/// snapshot), which is what lets the three arms fan out in parallel.
struct ArmRec {
  ArmRec(MobilityArm which, const MobilityConfig& config,
         const PatternTable& table, EntityId entity_id)
      : arm(which),
        entity(entity_id),
        venue(make_conference_scenario(config.dut_seed)),
        link(venue.make_link(Rng(substream_seed(
            config.seed, streams::event_entity_tag(entity_id), 1)))),
        driver(venue.peer->firmware()) {
    environment = dynamic_cast<RayTracedEnvironment*>(venue.environment.get());
    TALON_EXPECTS(environment != nullptr);

    CssDaemonConfig daemon_config;
    daemon_config.probes = config.probes;
    switch (arm) {
      case MobilityArm::kSswArgmax:
        // Pin the lifecycle in Acquisition: the first (priming) round can
        // never be healthy and the recovery window outlives any horizon,
        // so every scored round is a full SSW sweep + stock argmax.
        daemon_config.degradation.enabled = true;
        daemon_config.degradation.min_confidence = 1e18;
        daemon_config.degradation.max_consecutive_failures = 1;
        daemon_config.degradation.recovery_rounds = 1'000'000'000;
        break;
      case MobilityArm::kTrackingCss:
        daemon_config.track_path = true;
        [[fallthrough]];
      case MobilityArm::kCss:
        // The robustness layer under test: confidence-gated degradation
        // with the tuned defaults, so blockage outages trip full-sweep
        // re-acquisition exactly like the fault campaign.
        daemon_config.degradation.enabled = true;
        break;
    }
    const CssConfig css;
    session = std::make_unique<LinkSession>(
        driver,
        PatternAssetsRegistry::global().get_or_create(table, css.search_grid, css.domain),
        daemon_config,
        Rng(substream_seed(config.seed, streams::event_entity_tag(entity_id), 2)));
    if (arm == MobilityArm::kSswArgmax) {
      // Trip the pinned fallback with one empty drain (no readings, no
      // channel draws): from round 0 on the arm probes every sector.
      session->process_sweep();
    }
  }

  MobilityArm arm;
  EntityId entity;
  Scenario venue;
  LinkSimulator link;
  Wil6210Driver driver;
  RayTracedEnvironment* environment{nullptr};
  std::unique_ptr<LinkSession> session;
  // Campaign accumulators.
  std::uint64_t rounds{0};
  std::uint64_t outage_rounds{0};
  double loss_sum{0.0};
  double worst_loss_db{0.0};
  std::vector<double> realign_latencies_s;
  bool in_episode{false};
  double episode_start_s{0.0};
};

}  // namespace

const char* to_string(MobilityArm arm) {
  switch (arm) {
    case MobilityArm::kSswArgmax: return "ssw_argmax";
    case MobilityArm::kCss: return "css";
    case MobilityArm::kTrackingCss: return "tracking_css";
  }
  return "?";
}

MobilitySimulator::MobilitySimulator(MobilityConfig config,
                                     const PatternTable& table)
    : config_(std::move(config)), table_(&table) {
  TALON_EXPECTS(config_.duration_s > 0.0);
  TALON_EXPECTS(config_.training_interval_s > 0.0);
  TALON_EXPECTS(config_.probes >= 1);
  TALON_EXPECTS(config_.walk.speed_mps >= 0.0);
  TALON_EXPECTS(config_.blockage.rate_hz >= 0.0);
  TALON_EXPECTS(config_.blockage.mean_duration_s > 0.0);
  TALON_EXPECTS(config_.blockage.attenuation_db >= 0.0);
  TALON_EXPECTS(config_.churn.rate_hz >= 0.0);
  TALON_EXPECTS(config_.realign_loss_db > 0.0);
  TALON_EXPECTS(config_.outage_loss_db > config_.realign_loss_db);

  if (config_.walk.waypoints.empty()) {
    // A loop through the conference room, inside the reflector box
    // (y in (-2.8, 2.2), ceiling 2.8) and away from the AP at the origin.
    config_.walk.waypoints = {
        Vec3{3.0, 0.0, 1.0},
        Vec3{5.5, 1.6, 1.0},
        Vec3{4.5, -2.0, 1.0},
        Vec3{2.5, -1.0, 1.0},
    };
  }
  cumulative_m_.reserve(config_.walk.waypoints.size() + 1);
  cumulative_m_.push_back(0.0);
  const std::vector<Vec3>& w = config_.walk.waypoints;
  for (std::size_t i = 0; i < w.size(); ++i) {
    const Vec3& from = w[i];
    const Vec3& to = w[(i + 1) % w.size()];
    cumulative_m_.push_back(cumulative_m_.back() + norm(to - from));
  }
  loop_length_m_ = cumulative_m_.back();
}

Vec3 MobilitySimulator::position_at(double t_s) const {
  const std::vector<Vec3>& w = config_.walk.waypoints;
  if (loop_length_m_ <= 0.0 || config_.walk.speed_mps <= 0.0) return w.front();
  const double s = std::fmod(config_.walk.speed_mps * t_s, loop_length_m_);
  for (std::size_t i = 0; i + 1 < cumulative_m_.size(); ++i) {
    if (s > cumulative_m_[i + 1]) continue;
    const double seg_len = cumulative_m_[i + 1] - cumulative_m_[i];
    const double f = seg_len > 0.0 ? (s - cumulative_m_[i]) / seg_len : 0.0;
    const Vec3& from = w[i];
    const Vec3& to = w[(i + 1) % w.size()];
    return from + f * (to - from);
  }
  return w.front();
}

double MobilitySimulator::rotation_offset_deg_at(double t_s) const {
  const double amplitude = config_.walk.rotation_amplitude_deg;
  const double rate = config_.walk.rotation_deg_per_s;
  if (amplitude <= 0.0 || rate <= 0.0) return 0.0;
  // Triangle wave: 0 at t = 0, swinging between -amplitude and +amplitude
  // at `rate` degrees per second.
  const double x = std::fmod(rate * t_s + amplitude, 4.0 * amplitude);
  return std::abs(x - 2.0 * amplitude) - amplitude;
}

MobilityRunResult MobilitySimulator::run() {
  const double interval = config_.training_interval_s;
  const std::size_t slot_count = std::max<std::size_t>(
      1, static_cast<std::size_t>(config_.duration_s / interval + 1e-9));

  EventEngine engine(EventEngineConfig{.threads = config_.threads});
  const EntityId walker = engine.add_entity("walker");
  const EntityId blockage = engine.add_entity("blockage");
  const EntityId churn = engine.add_entity("churn");
  std::vector<std::unique_ptr<ArmRec>> arms;
  arms.reserve(kMobilityArmCount);
  for (std::size_t a = 0; a < kMobilityArmCount; ++a) {
    const MobilityArm which = static_cast<MobilityArm>(a);
    const EntityId entity =
        engine.add_entity(std::string("arm-") + to_string(which));
    arms.push_back(std::make_unique<ArmRec>(which, config_, *table_, entity));
  }

  WorldState world;
  world.sta_position = position_at(0.0);
  world.reflector_enabled.assign(
      arms.front()->environment->reflectors().size(), 1);
  std::uint64_t blockage_events = 0;
  std::uint64_t reflector_toggles = 0;

  // --- walker: publish the trajectory at each slot timestamp ----------------
  std::function<void(EventContext&, std::size_t)> walk_slot =
      [&](EventContext& ctx, std::size_t slot) {
        const double t = ctx.now();
        world.sta_position = position_at(t);
        const Vec3& p = world.sta_position;
        // Base yaw faces the AP at the origin; the rotation offset is the
        // user turning the device away from it.
        constexpr double kRadToDeg = 180.0 / 3.14159265358979323846;
        world.sta_yaw_deg =
            std::atan2(-p.y, -p.x) * kRadToDeg + rotation_offset_deg_at(t);
        if (slot + 1 < slot_count) {
          ctx.schedule(EventSpec{.time_s = static_cast<double>(slot + 1) * interval,
                                 .entity = walker,
                                 .priority = kWorldPhase,
                                 .commuting = true},
                       [&, slot](EventContext& next) { walk_slot(next, slot + 1); });
        }
      };
  engine.schedule(EventSpec{.time_s = 0.0,
                            .entity = walker,
                            .priority = kWorldPhase,
                            .commuting = true},
                  [&](EventContext& ctx) { walk_slot(ctx, 0); });

  // --- blockage: self-scheduling two-state flips ----------------------------
  // Every gap is one indexed substream draw, so the flip timeline depends
  // on nothing but (seed, blockage entity, flip index) -- enabling churn
  // or adding arms cannot move it.
  // Both processes' continuations capture their own recursive
  // std::function by reference, so the functions must outlive
  // engine.run() -- they live at function scope, not inside the ifs.
  std::function<void(EventContext&, std::uint64_t)> flip;
  std::function<void(EventContext&, std::uint64_t)> toggle;
  if (config_.blockage.rate_hz > 0.0) {
    flip =
        [&](EventContext& ctx, std::uint64_t index) {
          world.blocked = !world.blocked;
          ++blockage_events;
          Rng rng(substream_seed(config_.seed,
                                 streams::event_entity_tag(blockage), index));
          const double gap =
              world.blocked
                  ? config_.blockage.mean_duration_s *
                        exponential_gap(rng, 1.0)
                  : exponential_gap(rng, config_.blockage.rate_hz);
          ctx.schedule(EventSpec{.time_s = ctx.now() + gap,
                                 .entity = blockage,
                                 .priority = kWorldPhase,
                                 .commuting = true},
                       [&, index](EventContext& next) { flip(next, index + 1); });
        };
    Rng rng(substream_seed(config_.seed, streams::event_entity_tag(blockage), 0));
    engine.schedule(
        EventSpec{.time_s = exponential_gap(rng, config_.blockage.rate_hz),
                  .entity = blockage,
                  .priority = kWorldPhase,
                  .commuting = true},
        [&](EventContext& ctx) { flip(ctx, 1); });
  }

  // --- reflector churn: self-scheduling toggles -----------------------------
  if (config_.churn.rate_hz > 0.0 && !world.reflector_enabled.empty()) {
    toggle =
        [&](EventContext& ctx, std::uint64_t index) {
          Rng rng(substream_seed(config_.seed,
                                 streams::event_entity_tag(churn), index));
          const int which = rng.uniform_int(
              0, static_cast<int>(world.reflector_enabled.size()) - 1);
          world.reflector_enabled[static_cast<std::size_t>(which)] ^= 1;
          ++reflector_toggles;
          ctx.schedule(EventSpec{.time_s = ctx.now() +
                                           exponential_gap(rng, config_.churn.rate_hz),
                                 .entity = churn,
                                 .priority = kWorldPhase,
                                 .commuting = true},
                       [&, index](EventContext& next) { toggle(next, index + 1); });
        };
    Rng rng(substream_seed(config_.seed, streams::event_entity_tag(churn), 0));
    engine.schedule(EventSpec{.time_s = exponential_gap(rng, config_.churn.rate_hz),
                              .entity = churn,
                              .priority = kWorldPhase,
                              .commuting = true},
                    [&](EventContext& ctx) { toggle(ctx, 1); });
  }

  // --- arms: one training round per slot, reading the world snapshot -------
  std::function<void(EventContext&, ArmRec&, std::size_t)> arm_round =
      [&](EventContext& ctx, ArmRec& rec, std::size_t slot) {
        // Copy the published world into this arm's private rig.
        rec.venue.peer->pose().position = world.sta_position;
        rec.venue.peer->pose().orientation =
            DeviceOrientation(world.sta_yaw_deg, 0.0);
        rec.environment->set_los_blockage_db(
            world.blocked ? config_.blockage.attenuation_db : 0.0);
        for (std::size_t i = 0; i < world.reflector_enabled.size(); ++i) {
          rec.environment->set_reflector_enabled(i,
                                                 world.reflector_enabled[i] != 0);
        }

        double best = -1e300;
        for (int id : talon_tx_sector_ids()) {
          best = std::max(best, rec.link.true_snr_db(*rec.venue.dut, id,
                                                     *rec.venue.peer,
                                                     kRxQuasiOmniSectorId));
        }
        rec.link.transmit_sweep(*rec.venue.dut, *rec.venue.peer,
                                probing_burst_schedule(rec.session->next_probe_subset()));
        rec.session->process_sweep();
        // The beam the STA actually rides: the standing override, or the
        // firmware's stock argmax when nothing was installed yet.
        const FullMacFirmware& fw = rec.venue.peer->firmware();
        const int beam = fw.sector_override().value_or(fw.selected_sector());
        const double loss =
            best - rec.link.true_snr_db(*rec.venue.dut, beam, *rec.venue.peer,
                                        kRxQuasiOmniSectorId);

        ++rec.rounds;
        rec.loss_sum += loss;
        rec.worst_loss_db = std::max(rec.worst_loss_db, loss);
        if (loss > config_.outage_loss_db) {
          ++rec.outage_rounds;
          if (!rec.in_episode) {
            rec.in_episode = true;
            rec.episode_start_s = ctx.now();
          }
        } else if (rec.in_episode && loss <= config_.realign_loss_db) {
          rec.in_episode = false;
          rec.realign_latencies_s.push_back(ctx.now() - rec.episode_start_s);
        }

        if (slot + 1 < slot_count) {
          ctx.schedule(EventSpec{.time_s = static_cast<double>(slot + 1) * interval,
                                 .entity = rec.entity,
                                 .priority = kArmPhase,
                                 .commuting = true},
                       [&, slot, r = &rec](EventContext& next) {
                         arm_round(next, *r, slot + 1);
                       });
        }
      };
  for (const std::unique_ptr<ArmRec>& rec : arms) {
    engine.schedule(EventSpec{.time_s = 0.0,
                              .entity = rec->entity,
                              .priority = kArmPhase,
                              .commuting = true},
                    [&, r = rec.get()](EventContext& ctx) { arm_round(ctx, *r, 0); });
  }

  engine.run(config_.duration_s);

  // --- aggregation (serial, arm order) --------------------------------------
  MobilityRunResult result;
  result.simulated_s = static_cast<double>(slot_count) * interval;
  result.events_executed = engine.stats().executed;
  result.parallel_batches = engine.stats().parallel_batches;
  result.blockage_events = blockage_events;
  result.reflector_toggles = reflector_toggles;
  result.arms.reserve(kMobilityArmCount);
  for (const std::unique_ptr<ArmRec>& rec : arms) {
    MobilityArmResult out;
    out.arm = rec->arm;
    out.rounds = rec->rounds;
    out.outage_rounds = rec->outage_rounds;
    out.outage_fraction = rec->rounds > 0
                              ? static_cast<double>(rec->outage_rounds) /
                                    static_cast<double>(rec->rounds)
                              : 0.0;
    out.mean_loss_db =
        rec->rounds > 0 ? rec->loss_sum / static_cast<double>(rec->rounds) : 0.0;
    out.worst_loss_db = rec->worst_loss_db;
    out.realign_episodes = rec->realign_latencies_s.size();
    out.unrecovered_episodes = rec->in_episode ? 1 : 0;
    // quantile() requires non-empty input; a campaign with no closed
    // episode reports the sentinel instead (kNoRealignSentinel).
    if (!rec->realign_latencies_s.empty()) {
      out.median_realign_s = quantile(rec->realign_latencies_s, 0.5);
      out.p90_realign_s = quantile(rec->realign_latencies_s, 0.9);
      out.worst_realign_s = *std::max_element(rec->realign_latencies_s.begin(),
                                              rec->realign_latencies_s.end());
    }
    out.lifecycle = rec->session->lifecycle_stats();
    result.arms.push_back(out);
  }
  return result;
}

}  // namespace talon
