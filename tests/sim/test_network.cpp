#include "src/sim/network.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/css.hpp"
#include "tests/sim/experiment_fixture.hpp"

namespace talon {
namespace {

using testutil::ExperimentWorld;

std::shared_ptr<const PatternAssets> shared_assets() {
  const CssConfig defaults;
  return PatternAssetsRegistry::global().get_or_create(
      ExperimentWorld::instance().table, defaults.search_grid, defaults.domain);
}

NetworkConfig small_config(int threads) {
  NetworkConfig config;
  config.links = 3;
  config.rounds = 4;
  config.seed = 9;
  config.threads = threads;
  return config;
}

const Environment& shared_room() {
  static const std::unique_ptr<Environment> room = make_conference_room();
  return *room;
}

/// Everything a selection decision produced, for exact comparison.
struct Decision {
  bool selected;
  int sector;
  double snr;
  std::size_t probes;

  bool operator==(const Decision&) const = default;
};

std::vector<Decision> decisions(const NetworkRunResult& result) {
  std::vector<Decision> out;
  for (const NetworkRound& round : result.rounds) {
    for (const LinkRoundOutcome& link : round.links) {
      out.push_back(Decision{.selected = link.selected,
                             .sector = link.sector_id,
                             .snr = link.snr_db,
                             .probes = link.probes});
    }
  }
  return out;
}

TEST(NetworkSimulatorTest, RunsKPairsUnderContention) {
  NetworkSimulator sim(small_config(1), shared_room(), shared_assets());
  const NetworkRunResult result = sim.run();

  ASSERT_EQ(result.rounds.size(), 4u);
  EXPECT_EQ(result.total_trainings, 12);
  EXPECT_GT(result.training_airtime_share, 0.0);
  EXPECT_LE(result.training_airtime_share, 1.0);
  // A static short link selects successfully in (nearly) every round.
  std::size_t selected = 0;
  for (const Decision& d : decisions(result)) selected += d.selected ? 1 : 0;
  EXPECT_GE(selected, 10u);
  EXPECT_GT(result.mean_selected_snr_db, 0.0);
  EXPECT_GT(result.goodput_per_link_mbps, 0.0);
}

TEST(NetworkSimulatorTest, AllSessionsShareOnePatternAssetsInstance) {
  const auto assets = shared_assets();
  NetworkSimulator sim(small_config(1), shared_room(), assets);
  ASSERT_EQ(sim.link_count(), 3);
  for (int l = 0; l < sim.link_count(); ++l) {
    EXPECT_EQ(sim.daemon().session(l).assets().get(), assets.get());
  }
  EXPECT_EQ(sim.assets().get(), assets.get());
}

TEST(NetworkSimulatorTest, BitIdenticalAcrossThreadCounts) {
  // The acceptance bar: the K-link run is bit-identical at any thread
  // count, because every random draw is substream-addressed by
  // (stream, link, round) and each worker only touches its own link.
  // Selection runs inside each link's commuting event, so the second
  // input turns on every stateful session feature: a path tracker, the
  // adaptive probe count and the confidence-gated degradation machine.
  CssDaemonConfig stateful;
  stateful.track_path = true;
  stateful.adaptive = true;
  stateful.degradation.enabled = true;
  for (const CssDaemonConfig& session : {CssDaemonConfig{}, stateful}) {
    SCOPED_TRACE(session.track_path ? "stateful sessions" : "default sessions");
    NetworkConfig config = small_config(1);
    config.session = session;
    NetworkSimulator serial(config, shared_room(), shared_assets());
    const NetworkRunResult baseline = serial.run();
    const std::vector<Decision> expected = decisions(baseline);
    if (session.degradation.enabled) {
      // The gate accounted every one of the 3 x 4 link rounds.
      const DegradationStats& d = baseline.degradation_totals;
      EXPECT_EQ(d.css_rounds + d.failed_rounds + d.full_sweep_rounds, 12u);
    }

    for (int threads : {2, 7}) {
      config.threads = threads;
      NetworkSimulator sim(config, shared_room(), shared_assets());
      const NetworkRunResult result = sim.run();
      EXPECT_EQ(decisions(result), expected) << "threads=" << threads;
      EXPECT_EQ(result.training_airtime_share, baseline.training_airtime_share)
          << "threads=" << threads;
      EXPECT_EQ(result.deferred_trainings, baseline.deferred_trainings)
          << "threads=" << threads;
      EXPECT_EQ(result.worst_defer_ms, baseline.worst_defer_ms)
          << "threads=" << threads;
      EXPECT_EQ(result.degradation_totals, baseline.degradation_totals)
          << "threads=" << threads;
      EXPECT_EQ(result.lifecycle_totals, baseline.lifecycle_totals)
          << "threads=" << threads;
    }
  }
}

TEST(NetworkSimulatorTest, PerturbingOneLinkNeverChangesTheOthers) {
  NetworkConfig base = small_config(2);
  NetworkSimulator baseline_sim(base, shared_room(), shared_assets());
  const NetworkRunResult baseline = baseline_sim.run();

  NetworkConfig perturbed = base;
  perturbed.link_seed_salts = {0, 77, 0};  // perturb link 1's RNG only
  NetworkSimulator perturbed_sim(perturbed, shared_room(), shared_assets());
  const NetworkRunResult result = perturbed_sim.run();

  // The salt really moved link 1 onto a different substream: its next
  // probe subset diverges from the baseline's.
  EXPECT_NE(perturbed_sim.daemon().session(1).next_probe_subset(),
            baseline_sim.daemon().session(1).next_probe_subset());

  // ...but links 0 and 2 are untouched, bit for bit.
  ASSERT_EQ(result.rounds.size(), baseline.rounds.size());
  for (std::size_t r = 0; r < result.rounds.size(); ++r) {
    for (int l : {0, 2}) {
      const LinkRoundOutcome& got = result.rounds[r].links[l];
      const LinkRoundOutcome& want = baseline.rounds[r].links[l];
      EXPECT_EQ(got.selected, want.selected) << "round " << r << " link " << l;
      EXPECT_EQ(got.sector_id, want.sector_id) << "round " << r << " link " << l;
      EXPECT_EQ(got.snr_db, want.snr_db) << "round " << r << " link " << l;
      EXPECT_EQ(got.probes, want.probes) << "round " << r << " link " << l;
    }
  }
}

TEST(NetworkSimulatorTest, FacadeReproducesRoundBasedGoldenSequence) {
  // Golden decisions captured from the pre-refactor round-based
  // NetworkSimulator (K=4, 4 rounds, seed 20260807) before it was
  // rerouted over the discrete-event engine. SNR values are pinned as
  // exact bit patterns: the facade must reproduce the old engine bit for
  // bit, at every thread count.
  struct Golden {
    bool selected;
    int sector;
    std::uint64_t snr_bits;
    std::size_t probes;
  };
  constexpr Golden kGolden[] = {
      {true, 63, 0x403b2ca068667c3cULL, 14}, {true, 63, 0x403b3542e51f0184ULL, 14},
      {true, 12, 0x403b5f01472385c8ULL, 14}, {true, 63, 0x403b542679aea04eULL, 14},
      {true, 63, 0x403b2ca068667c3cULL, 14}, {true, 12, 0x403b3542e51f0184ULL, 14},
      {true, 63, 0x403b5f01472385c8ULL, 14}, {true, 63, 0x403b542679aea04eULL, 14},
      {true, 63, 0x403b2ca068667c3cULL, 14}, {true, 12, 0x403b3542e51f0184ULL, 14},
      {true, 63, 0x403b5f01472385c8ULL, 14}, {true, 12, 0x403b542679aea04eULL, 14},
      {true, 12, 0x403b2ca068667c3cULL, 14}, {true, 63, 0x403b3542e51f0184ULL, 14},
      {true, 63, 0x403b5f01472385c8ULL, 14}, {true, 63, 0x403b542679aea04eULL, 14},
  };
  constexpr std::uint64_t kGoldenAirtimeBits = 0x3f621fbd34a954f9ULL;

  for (int threads : {1, 2, 4, 7}) {
    NetworkConfig config;
    config.links = 4;
    config.rounds = 4;
    config.seed = 20260807;
    config.threads = threads;
    NetworkSimulator sim(config, shared_room(), shared_assets());
    const NetworkRunResult result = sim.run();

    const std::vector<Decision> got = decisions(result);
    ASSERT_EQ(got.size(), std::size(kGolden)) << "threads=" << threads;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].selected, kGolden[i].selected) << "entry " << i;
      EXPECT_EQ(got[i].sector, kGolden[i].sector) << "entry " << i;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].snr),
                kGolden[i].snr_bits) << "entry " << i;
      EXPECT_EQ(got[i].probes, kGolden[i].probes) << "entry " << i;
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(result.training_airtime_share),
              kGoldenAirtimeBits) << "threads=" << threads;
    EXPECT_EQ(result.deferred_trainings, 0) << "threads=" << threads;
    EXPECT_EQ(result.worst_defer_ms, 0.0) << "threads=" << threads;
  }
}

TEST(NetworkSimulatorTest, ZeroValidSelectionsKeepAggregatesFinite) {
  // A fault plan that drops every probe: no sweep ever decodes, so the
  // run ends with zero valid selections. The aggregate means must stay at
  // their (finite) zero defaults instead of dividing by the selection
  // count.
  NetworkConfig config = small_config(1);
  auto plan = std::make_shared<FaultPlan>();
  plan->seed = 77;
  plan->loss.probability = 1.0;
  config.session.faults = plan;

  NetworkSimulator sim(config, shared_room(), shared_assets());
  const NetworkRunResult result = sim.run();

  for (const Decision& d : decisions(result)) EXPECT_FALSE(d.selected);
  EXPECT_EQ(result.mean_selected_snr_db, 0.0);
  EXPECT_EQ(result.goodput_per_link_mbps, 0.0);
  EXPECT_TRUE(std::isfinite(result.mean_selected_snr_db));
  EXPECT_TRUE(std::isfinite(result.goodput_per_link_mbps));
  // The trainings still happened and burned airtime...
  EXPECT_EQ(result.total_trainings, 12);
  EXPECT_GT(result.training_airtime_share, 0.0);
  // ...and the injector accounted every dropped reading.
  EXPECT_GT(result.fault_totals.probes_lost, 0u);
}

TEST(NetworkSimulatorTest, SaturatedChannelDefersTrainings) {
  NetworkConfig config = small_config(1);
  config.links = 6;
  config.rounds = 3;
  // Mobility so high the K trainings cannot all fit in one period.
  config.trainings_per_second = 400.0;
  NetworkSimulator sim(config, shared_room(), shared_assets());
  const NetworkRunResult result = sim.run();
  EXPECT_GT(result.deferred_trainings, 0);
  EXPECT_GT(result.worst_defer_ms, 0.0);
  EXPECT_EQ(result.training_airtime_share, 1.0);
}

}  // namespace
}  // namespace talon
