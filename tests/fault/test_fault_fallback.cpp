// Graceful CSS -> SSW degradation: the confidence gate, the
// consecutive-failure trip wire, the full-sweep recovery window, and the
// invariant that disabling it all reproduces the legacy selections.
#include <gtest/gtest.h>

#include <memory>

#include "src/antenna/codebook.hpp"
#include "src/driver/css_daemon.hpp"
#include "src/sim/scenario.hpp"
#include "tests/sim/experiment_fixture.hpp"

namespace talon {
namespace {

using testutil::ExperimentWorld;

class FaultFallbackTest : public ::testing::Test {
 protected:
  FaultFallbackTest()
      : lab_(make_lab_scenario(42)),
        link_(lab_.make_link(Rng(71))),
        driver_(lab_.peer->firmware()) {
    lab_.set_head(25.0, 0.0);
  }

  std::optional<CssResult> round(LinkSession& session) {
    link_.transmit_sweep(*lab_.dut, *lab_.peer,
                         probing_burst_schedule(session.next_probe_subset()));
    return session.process_sweep();
  }

  Scenario lab_;
  LinkSimulator link_;
  Wil6210Driver driver_;
};

TEST_F(FaultFallbackTest, ConfidenceModeSelectsBitIdentically) {
  // The confidence computation makes the walk find the rival too; the
  // selection must not move by a single bit (this is what keeps the
  // frozen figure CSVs valid).
  driver_.load_research_patches();
  const std::vector<int> subset{2, 5, 9, 12, 15, 18, 21, 24, 27, 30};
  link_.transmit_sweep(*lab_.dut, *lab_.peer, probing_burst_schedule(subset));
  const auto readings = driver_.read_sweep_readings();
  ASSERT_GE(readings.size(), 3u);

  const CompressiveSectorSelector plain(ExperimentWorld::instance().table);
  CssConfig with_confidence;
  with_confidence.compute_confidence = true;
  const CompressiveSectorSelector gated(ExperimentWorld::instance().table,
                                        with_confidence);

  CorrelationWorkspace ws;
  const CssResult a = plain.select(readings, ws);
  const CssResult b = gated.select(readings, ws);
  ASSERT_TRUE(a.valid);
  ASSERT_TRUE(b.valid);
  EXPECT_EQ(a.sector_id, b.sector_id);
  ASSERT_TRUE(a.estimated_direction.has_value());
  ASSERT_TRUE(b.estimated_direction.has_value());
  EXPECT_EQ(a.estimated_direction->azimuth_deg, b.estimated_direction->azimuth_deg);
  EXPECT_EQ(a.estimated_direction->elevation_deg,
            b.estimated_direction->elevation_deg);
  EXPECT_EQ(a.correlation_peak, b.correlation_peak);

  // Only the gated selector pays for (and reports) a confidence.
  EXPECT_EQ(a.confidence, 0.0);
  EXPECT_GT(b.confidence, 1.0);
}

TEST_F(FaultFallbackTest, LowConfidenceWithholdsTheInstall) {
  CssDaemonConfig config;
  config.degradation.enabled = true;
  config.degradation.min_confidence = 1e9;  // nothing can clear this bar
  config.degradation.max_consecutive_failures = 1000;  // stay in CSS mode
  LinkSession session(driver_, ExperimentWorld::instance().assets(), config, Rng(2));

  const auto result = round(session);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->valid);
  // The distrusted estimate is still reported, with its confidence...
  EXPECT_TRUE(result->estimated_direction.has_value());
  EXPECT_GT(result->confidence, 0.0);
  EXPECT_LT(result->confidence, 1e9);
  // ...but never installed: the link keeps its current beam (here the
  // firmware's own stock selection -- no override was ever forced).
  EXPECT_FALSE(driver_.sector_forced());
  const DegradationStats& stats = session.degradation_stats();
  EXPECT_EQ(stats.low_confidence_events, 1u);
  EXPECT_EQ(stats.failed_rounds, 1u);
  EXPECT_EQ(stats.css_rounds, 0u);
}

TEST_F(FaultFallbackTest, RepeatedFailuresTripFullSweepMode) {
  CssDaemonConfig config;
  config.degradation.enabled = true;
  config.degradation.min_confidence = 1e9;
  config.degradation.max_consecutive_failures = 3;
  config.degradation.recovery_rounds = 2;
  LinkSession session(driver_, ExperimentWorld::instance().assets(), config, Rng(3));

  // Three low-confidence rounds trip the fallback...
  for (int r = 0; r < 3; ++r) {
    ASSERT_TRUE(round(session).has_value());
  }
  EXPECT_TRUE(session.in_fallback());
  EXPECT_EQ(session.degradation_stats().fallback_entries, 1u);

  // ...where the session probes every transmit sector and selects with the
  // stock argmax (which needs no confidence, so these rounds succeed).
  const auto subset = session.next_probe_subset();
  EXPECT_EQ(subset.size(), talon_tx_sector_ids().size());
  link_.transmit_sweep(*lab_.dut, *lab_.peer, probing_burst_schedule(subset));
  const auto full = session.process_sweep();
  ASSERT_TRUE(full.has_value());
  EXPECT_TRUE(full->valid);
  EXPECT_TRUE(session.in_fallback());  // one recovery round left

  ASSERT_TRUE(round(session).has_value());
  EXPECT_FALSE(session.in_fallback());  // window served, CSS gets retried
  const DegradationStats& stats = session.degradation_stats();
  EXPECT_EQ(stats.full_sweep_rounds, 2u);
  EXPECT_EQ(stats.failed_rounds, 3u);

  // The full sweep's argmax is the true best reported sector, so the
  // degraded link still holds a near-optimal beam.
  double best = -1e9;
  for (int id : talon_tx_sector_ids()) {
    best = std::max(best, link_.true_snr_db(*lab_.dut, id, *lab_.peer,
                                            kRxQuasiOmniSectorId));
  }
  EXPECT_GE(link_.true_snr_db(*lab_.dut, full->sector_id, *lab_.peer,
                              kRxQuasiOmniSectorId),
            best - 1.0);
}

TEST_F(FaultFallbackTest, EmptySweepsCountAsFailures) {
  CssDaemonConfig config;
  config.degradation.enabled = true;
  config.degradation.max_consecutive_failures = 3;
  LinkSession session(driver_, ExperimentWorld::instance().assets(), config, Rng(4));
  // Nothing was ever transmitted: three empty drains trip the fallback.
  for (int r = 0; r < 3; ++r) {
    EXPECT_FALSE(session.process_sweep().has_value());
  }
  EXPECT_TRUE(session.in_fallback());
  EXPECT_EQ(session.degradation_stats().failed_rounds, 3u);
}

TEST_F(FaultFallbackTest, HealthyRoundsResetTheFailureCount) {
  CssDaemonConfig config;
  config.degradation.enabled = true;
  config.degradation.min_confidence = 0.0;  // confidence can never trip
  config.degradation.max_consecutive_failures = 3;
  LinkSession session(driver_, ExperimentWorld::instance().assets(), config, Rng(5));

  // failure, failure, healthy, failure, failure: never three in a row.
  EXPECT_FALSE(session.process_sweep().has_value());
  EXPECT_FALSE(session.process_sweep().has_value());
  ASSERT_TRUE(round(session).has_value());
  EXPECT_FALSE(session.process_sweep().has_value());
  EXPECT_FALSE(session.process_sweep().has_value());
  EXPECT_FALSE(session.in_fallback());

  const DegradationStats& stats = session.degradation_stats();
  EXPECT_EQ(stats.css_rounds, 1u);
  EXPECT_EQ(stats.failed_rounds, 4u);
  EXPECT_EQ(stats.fallback_entries, 0u);
}

TEST_F(FaultFallbackTest, PersistentFailureCyclesThroughRecoveryWindows) {
  CssDaemonConfig config;
  config.degradation.enabled = true;
  config.degradation.min_confidence = 1e9;  // CSS can never be healthy
  config.degradation.max_consecutive_failures = 2;
  config.degradation.recovery_rounds = 2;
  config.degradation.max_recovery_backoff = 1;  // fixed-size windows
  LinkSession session(driver_, ExperimentWorld::instance().assets(), config, Rng(6));
  for (int r = 0; r < 12; ++r) {
    ASSERT_TRUE(round(session).has_value()) << "round " << r;
  }
  // 12 rounds = 3 cycles of (2 failing CSS rounds + 2 full sweeps).
  const DegradationStats& stats = session.degradation_stats();
  EXPECT_EQ(stats.css_rounds, 0u);
  EXPECT_EQ(stats.failed_rounds, 6u);
  EXPECT_EQ(stats.full_sweep_rounds, 6u);
  EXPECT_EQ(stats.fallback_entries, 3u);
  EXPECT_EQ(stats.low_confidence_events, 6u);
}

TEST_F(FaultFallbackTest, RecoveryWindowsBackOffExponentially) {
  CssDaemonConfig config;
  config.degradation.enabled = true;
  config.degradation.min_confidence = 1e9;  // CSS can never be healthy
  config.degradation.max_consecutive_failures = 1;
  config.degradation.recovery_rounds = 1;
  config.degradation.max_recovery_backoff = 4;
  LinkSession session(driver_, ExperimentWorld::instance().assets(), config, Rng(7));
  // Persistent failure: each re-entry doubles the window up to the cap.
  //   fail, 1 full, fail, 2 full, fail, 4 full, fail, 4 full, ...
  for (int r = 0; r < 15; ++r) {
    ASSERT_TRUE(round(session).has_value()) << "round " << r;
  }
  const DegradationStats& stats = session.degradation_stats();
  EXPECT_EQ(stats.failed_rounds, 4u);      // rounds 1, 3, 6, 11
  EXPECT_EQ(stats.full_sweep_rounds, 11u); // 1 + 2 + 4 + 4 (capped)
  EXPECT_EQ(stats.fallback_entries, 4u);
}

TEST_F(FaultFallbackTest, UnderfilledSweepsAreDistrusted) {
  CssDaemonConfig config;
  config.degradation.enabled = true;
  config.degradation.min_confidence = 0.0;  // the confidence gate is off
  config.degradation.min_probe_fraction = 0.5;
  config.degradation.max_consecutive_failures = 1000;
  config.probes = 14;
  auto plan = std::make_shared<FaultPlan>();
  plan->seed = 11;
  plan->loss.probability = 0.95;  // ~0.7 of 14 probes survive on average
  config.faults = plan;
  LinkSession session(driver_, ExperimentWorld::instance().assets(), config, Rng(8));

  for (int r = 0; r < 10; ++r) round(session);
  const DegradationStats& stats = session.degradation_stats();
  // Every non-empty sweep fell below 7 of the 14 requested probes, so no
  // selection was ever trusted enough to install.
  EXPECT_GT(stats.underfilled_rounds, 0u);
  EXPECT_EQ(stats.css_rounds, 0u);
  EXPECT_FALSE(driver_.sector_forced());
}

TEST_F(FaultFallbackTest, DisabledDegradationReproducesLegacySelections) {
  // The entire robustness layer must be invisible when switched off: a
  // degradation-enabled daemon whose gate can never trip selects exactly
  // what the legacy daemon selects, round for round.
  Scenario other = make_lab_scenario(42);
  other.set_head(25.0, 0.0);
  LinkSimulator other_link = other.make_link(Rng(71));
  Wil6210Driver other_driver(other.peer->firmware());

  CssDaemonConfig gated;
  gated.degradation.enabled = true;
  gated.degradation.min_confidence = 0.0;
  LinkSession legacy(driver_, ExperimentWorld::instance().assets(), CssDaemonConfig{},
                     Rng(9));
  LinkSession robust(other_driver, ExperimentWorld::instance().assets(), gated, Rng(9));

  for (int r = 0; r < 8; ++r) {
    const auto subset_a = legacy.next_probe_subset();
    const auto subset_b = robust.next_probe_subset();
    ASSERT_EQ(subset_a, subset_b) << "round " << r;
    link_.transmit_sweep(*lab_.dut, *lab_.peer, probing_burst_schedule(subset_a));
    other_link.transmit_sweep(*other.dut, *other.peer,
                              probing_burst_schedule(subset_b));
    const auto a = legacy.process_sweep();
    const auto b = robust.process_sweep();
    ASSERT_EQ(a.has_value(), b.has_value()) << "round " << r;
    if (a) {
      EXPECT_EQ(a->sector_id, b->sector_id) << "round " << r;
      EXPECT_EQ(a->correlation_peak, b->correlation_peak) << "round " << r;
    }
  }
  EXPECT_EQ(robust.degradation_stats().css_rounds, 8u);
  EXPECT_EQ(robust.degradation_stats().fallback_entries, 0u);
}

}  // namespace
}  // namespace talon
