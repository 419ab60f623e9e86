// Fault injection end to end: the FaultPlan drawn through the firmware
// ring, the driver and the LinkSession, with counters as the observable
// record of every fault fired.
#include <gtest/gtest.h>

#include <memory>

#include "src/driver/css_daemon.hpp"
#include "src/sim/scenario.hpp"
#include "tests/sim/experiment_fixture.hpp"

namespace talon {
namespace {

using testutil::ExperimentWorld;

class FaultInjectionTest : public ::testing::Test {
 protected:
  FaultInjectionTest()
      : lab_(make_lab_scenario(42)),
        link_(lab_.make_link(Rng(61))),
        driver_(lab_.peer->firmware()) {
    lab_.set_head(25.0, 0.0);
  }

  CssDaemonConfig config_with(FaultPlan plan) {
    CssDaemonConfig config;
    config.faults = std::make_shared<const FaultPlan>(plan);
    return config;
  }

  /// One training round driven through the daemon's first session.
  std::optional<CssResult> round(LinkSession& session) {
    link_.transmit_sweep(*lab_.dut, *lab_.peer,
                         probing_burst_schedule(session.next_probe_subset()));
    return session.process_sweep();
  }

  Scenario lab_;
  LinkSimulator link_;
  Wil6210Driver driver_;
};

TEST_F(FaultInjectionTest, NullAndEmptyPlansInstallNoInjector) {
  LinkSession plain(driver_, ExperimentWorld::instance().assets(), CssDaemonConfig{},
                    Rng(1));
  EXPECT_EQ(plain.fault_injector(), nullptr);
  EXPECT_EQ(plain.fault_stats(), FaultStats{});

  // A present-but-empty plan behaves exactly like no plan.
  Scenario second = make_lab_scenario(42);
  Wil6210Driver second_driver(second.peer->firmware());
  LinkSession empty(second_driver, ExperimentWorld::instance().assets(),
                    config_with(FaultPlan{.seed = 5}), Rng(1));
  EXPECT_EQ(empty.fault_injector(), nullptr);
}

TEST_F(FaultInjectionTest, SessionSharesItsInjectorWithTheFirmware) {
  FaultPlan plan{.seed = 7};
  plan.loss.probability = 0.2;
  LinkSession session(driver_, ExperimentWorld::instance().assets(), config_with(plan),
                      Rng(2));
  const auto& injector = session.fault_injector();
  ASSERT_NE(injector, nullptr);
  EXPECT_EQ(lab_.peer->firmware().fault_injector().get(), injector.get());
  EXPECT_EQ(injector->link_id(), 0);
}

TEST_F(FaultInjectionTest, ProbeLossThinsTheSweepButSelectionSurvives) {
  FaultPlan plan{.seed = 11};
  plan.loss.probability = 0.3;
  LinkSession session(driver_, ExperimentWorld::instance().assets(), config_with(plan),
                      Rng(3));
  std::size_t selected = 0;
  for (int r = 0; r < 10; ++r) {
    if (round(session)) ++selected;
  }
  const FaultStats stats = session.fault_stats();
  EXPECT_GT(stats.probes_lost, 10u);   // ~0.3 * 14 * 10
  EXPECT_LT(stats.probes_lost, 100u);
  // 14 probes minus ~30% still clears min_probes comfortably.
  EXPECT_GE(selected, 9u);
}

TEST_F(FaultInjectionTest, TotalLossYieldsEmptySweeps) {
  FaultPlan plan{.seed = 13};
  plan.loss.probability = 1.0;
  LinkSession session(driver_, ExperimentWorld::instance().assets(), config_with(plan),
                      Rng(4));
  EXPECT_FALSE(round(session).has_value());
  EXPECT_FALSE(driver_.sector_forced());
  // Every decoded probe of the sweep was eaten (the channel may have
  // missed a few before the injector even saw them).
  const FaultStats stats = session.fault_stats();
  EXPECT_GT(stats.probes_lost, 0u);
  EXPECT_LE(stats.probes_lost, 14u);
}

TEST_F(FaultInjectionTest, CorruptionCountersTrackTheSweepPath) {
  FaultPlan plan{.seed = 17};
  plan.corruption.snr_outlier_probability = 0.5;
  plan.corruption.floor_clamp_probability = 0.2;
  LinkSession session(driver_, ExperimentWorld::instance().assets(), config_with(plan),
                      Rng(5));
  for (int r = 0; r < 10; ++r) round(session);
  const FaultStats stats = session.fault_stats();
  EXPECT_GT(stats.snr_outliers, 30u);
  EXPECT_GT(stats.floor_clamps, 5u);
  EXPECT_EQ(stats.rssi_outliers, 0u);
}

TEST_F(FaultInjectionTest, DuplicateRingEntriesDoubleTheDrainedSweep) {
  auto injector = std::make_shared<LinkFaultInjector>(
      std::make_shared<const FaultPlan>(FaultPlan{
          .seed = 19, .ring = {.duplicate_probability = 1.0}}),
      0);
  driver_.load_research_patches();
  driver_.install_fault_injector(injector);

  const std::vector<int> subset{1, 2, 3, 4, 5};
  link_.transmit_sweep(*lab_.dut, *lab_.peer, probing_burst_schedule(subset));
  const auto readings = driver_.read_sweep_readings();
  EXPECT_EQ(readings.size(), 10u);
  EXPECT_EQ(injector->stats().ring_duplicates, 5u);
  // Consecutive pairs are copies of the same decoded frame.
  for (std::size_t i = 0; i + 1 < readings.size(); i += 2) {
    EXPECT_EQ(readings[i].sector_id, readings[i + 1].sector_id);
    EXPECT_EQ(readings[i].snr_db, readings[i + 1].snr_db);
  }
}

TEST_F(FaultInjectionTest, StaleEntriesCarryThePreviousSweepIndex) {
  auto injector = std::make_shared<LinkFaultInjector>(
      std::make_shared<const FaultPlan>(
          FaultPlan{.seed = 23, .ring = {.stale_probability = 1.0}}),
      0);
  driver_.load_research_patches();
  driver_.install_fault_injector(injector);

  // Sweep 1 provides the stale material; drain it away.
  const std::vector<int> first{1, 2, 3};
  link_.transmit_sweep(*lab_.dut, *lab_.peer, probing_burst_schedule(first));
  EXPECT_EQ(driver_.read_sweep_readings().size(), 3u);
  EXPECT_EQ(injector->stats().ring_stale, 0u);  // nothing to re-push yet

  // Sweep 2: every decoded frame drags sweep 1's last entry back in.
  const std::vector<int> second{4, 5, 6};
  link_.transmit_sweep(*lab_.dut, *lab_.peer, probing_burst_schedule(second));
  const std::string dump = driver_.dump_sweep_info();
  std::size_t stale_lines = 0;
  for (std::size_t pos = dump.find("sweep=1 "); pos != std::string::npos;
       pos = dump.find("sweep=1 ", pos + 1)) {
    ++stale_lines;
  }
  EXPECT_EQ(stale_lines, 3u);
  EXPECT_EQ(injector->stats().ring_stale, 3u);
}

TEST_F(FaultInjectionTest, OverflowBurstEvictsTheRealReadings) {
  FaultPlan plan{.seed = 29};
  plan.ring.overflow_probability = 1.0;
  plan.ring.overflow_burst = 300;  // > the default ring capacity of 256
  auto injector =
      std::make_shared<LinkFaultInjector>(std::make_shared<const FaultPlan>(plan), 0);
  driver_.load_research_patches();
  driver_.install_fault_injector(injector);

  const std::vector<int> subset{1, 2, 3, 4, 5};
  link_.transmit_sweep(*lab_.dut, *lab_.peer, probing_burst_schedule(subset));
  const auto readings = driver_.read_sweep_readings();
  // The flood wrapped the ring: only copies of the final entry survive.
  ASSERT_EQ(readings.size(), 256u);
  for (const SectorReading& r : readings) {
    EXPECT_EQ(r.sector_id, readings.front().sector_id);
  }
  EXPECT_EQ(injector->stats().ring_overflows, 1u);
}

TEST_F(FaultInjectionTest, RingFaultsRequireTheSweepInfoPatch) {
  // The injector models ucode glitches in the patched ring; the stock
  // firmware has no ring to corrupt, so sweeps must not touch the injector.
  FaultPlan plan{.seed = 31};
  plan.ring.duplicate_probability = 1.0;
  auto injector =
      std::make_shared<LinkFaultInjector>(std::make_shared<const FaultPlan>(plan), 0);
  driver_.install_fault_injector(injector);  // patches NOT loaded
  const std::vector<int> subset{1, 2};
  link_.transmit_sweep(*lab_.dut, *lab_.peer, probing_burst_schedule(subset));
  EXPECT_EQ(injector->stats().ring_duplicates, 0u);
}

TEST_F(FaultInjectionTest, DroppedFeedbackRetriesWithExponentialBackoff) {
  FaultPlan plan{.seed = 37};
  plan.feedback.drop_probability = 1.0;  // every attempt lost
  plan.feedback.max_retries = 3;
  plan.feedback.backoff_base_us = 100.0;
  LinkSession session(driver_, ExperimentWorld::instance().assets(), config_with(plan),
                      Rng(6));
  const auto result = round(session);
  ASSERT_TRUE(result.has_value());  // the selection itself succeeded
  EXPECT_FALSE(driver_.sector_forced());  // ...but never reached the chip
  const FaultStats stats = session.fault_stats();
  EXPECT_EQ(stats.feedback_drops, 4u);  // 1 attempt + 3 retries
  EXPECT_EQ(stats.feedback_retries, 3u);
  EXPECT_EQ(stats.feedback_failures, 1u);
  // Backoff doubles: 100 + 200 + 400 us.
  EXPECT_EQ(stats.feedback_latency_us, 700.0);
}

TEST_F(FaultInjectionTest, RetriesRecoverFromPartialFeedbackLoss) {
  FaultPlan plan{.seed = 41};
  plan.feedback.drop_probability = 0.5;
  plan.feedback.max_retries = 8;  // 9 attempts: loss of all is ~0.2%
  LinkSession session(driver_, ExperimentWorld::instance().assets(), config_with(plan),
                      Rng(7));
  std::size_t forced_rounds = 0;
  for (int r = 0; r < 10; ++r) {
    if (round(session) && driver_.sector_forced()) ++forced_rounds;
  }
  EXPECT_GE(forced_rounds, 9u);
  const FaultStats stats = session.fault_stats();
  EXPECT_GT(stats.feedback_drops, 0u);
  EXPECT_EQ(stats.feedback_retries, stats.feedback_drops - stats.feedback_failures);
}

TEST_F(FaultInjectionTest, FeedbackDelayAccumulatesLatency) {
  FaultPlan plan{.seed = 43};
  plan.feedback.delay_probability = 1.0;
  plan.feedback.delay_us = 500.0;
  LinkSession session(driver_, ExperimentWorld::instance().assets(), config_with(plan),
                      Rng(8));
  ASSERT_TRUE(round(session).has_value());
  EXPECT_TRUE(driver_.sector_forced());  // delayed, not dropped
  const FaultStats stats = session.fault_stats();
  EXPECT_EQ(stats.feedback_delays, 1u);
  EXPECT_EQ(stats.feedback_latency_us, 500.0);
}

TEST_F(FaultInjectionTest, DaemonTotalsSumThePerLinkCounters) {
  FaultPlan plan{.seed = 47};
  plan.loss.probability = 0.4;
  const auto assets = PatternAssetsRegistry::global().get_or_create(
      ExperimentWorld::instance().table, CssConfig{}.search_grid,
      CssConfig{}.domain);
  CssDaemon daemon(assets, config_with(plan));

  Scenario second = make_lab_scenario(42);
  second.set_head(-10.0, 0.0);
  Wil6210Driver second_driver(second.peer->firmware());
  LinkSimulator second_link = second.make_link(Rng(62));

  daemon.add_link(0, driver_, Rng(21));
  daemon.add_link(1, second_driver, Rng(22));
  for (int r = 0; r < 5; ++r) {
    link_.transmit_sweep(*lab_.dut, *lab_.peer,
                         probing_burst_schedule(daemon.session(0).next_probe_subset()));
    second_link.transmit_sweep(
        *second.dut, *second.peer,
        probing_burst_schedule(daemon.session(1).next_probe_subset()));
    daemon.session(0).process_sweep();
    daemon.session(1).process_sweep();
  }
  FaultStats expected = daemon.session(0).fault_stats();
  expected += daemon.session(1).fault_stats();
  EXPECT_EQ(daemon.total_fault_stats(), expected);
  EXPECT_GT(expected.probes_lost, 0u);
  // Different links draw different substreams of the same plan.
  EXPECT_NE(daemon.session(0).fault_stats().probes_lost,
            daemon.session(1).fault_stats().probes_lost);
}

}  // namespace
}  // namespace talon
