#include "src/common/fault.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/common/error.hpp"

namespace talon {
namespace {

std::shared_ptr<const FaultPlan> make_plan(FaultPlan plan) {
  return std::make_shared<const FaultPlan>(plan);
}

TEST(FaultPlanTest, DefaultPlanInjectsNothing) {
  EXPECT_FALSE(FaultPlan{}.any_enabled());
}

TEST(FaultPlanTest, EachCategoryEnablesThePlan) {
  {
    FaultPlan p;
    p.loss.probability = 0.1;
    EXPECT_TRUE(p.any_enabled());
  }
  {
    FaultPlan p;
    p.burst.enabled = true;
    EXPECT_TRUE(p.any_enabled());
  }
  {
    FaultPlan p;
    p.corruption.snr_outlier_probability = 0.1;
    EXPECT_TRUE(p.any_enabled());
  }
  {
    FaultPlan p;
    p.corruption.floor_clamp_probability = 0.1;
    EXPECT_TRUE(p.any_enabled());
  }
  {
    FaultPlan p;
    p.ring.duplicate_probability = 0.1;
    EXPECT_TRUE(p.any_enabled());
  }
  {
    // Overflow needs both a probability and a burst size to do anything.
    FaultPlan p;
    p.ring.overflow_probability = 0.5;
    EXPECT_FALSE(p.any_enabled());
    p.ring.overflow_burst = 8;
    EXPECT_TRUE(p.any_enabled());
  }
  {
    FaultPlan p;
    p.feedback.drop_probability = 0.1;
    EXPECT_TRUE(p.any_enabled());
  }
  {
    FaultPlan p;
    p.feedback.delay_probability = 0.1;
    EXPECT_TRUE(p.any_enabled());
  }
}

TEST(FaultPlanTest, NullPlanIsRejected) {
  EXPECT_THROW(LinkFaultInjector(nullptr, 0), PreconditionError);
}

TEST(LinkFaultInjectorTest, ZeroProbabilitiesNeverFire) {
  LinkFaultInjector injector(make_plan(FaultPlan{.seed = 7}), 0);
  double snr = 10.0;
  double rssi = -55.0;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(injector.drop_probe());
    injector.corrupt_reading(snr, rssi);
    EXPECT_FALSE(injector.inject_duplicate());
    EXPECT_FALSE(injector.inject_stale());
    EXPECT_EQ(injector.overflow_burst(), 0u);
    EXPECT_FALSE(injector.drop_feedback_attempt());
    EXPECT_EQ(injector.feedback_delay_us(), 0.0);
  }
  EXPECT_EQ(snr, 10.0);
  EXPECT_EQ(rssi, -55.0);
  EXPECT_EQ(injector.stats(), FaultStats{});
}

TEST(LinkFaultInjectorTest, BernoulliLossMatchesTheConfiguredRate) {
  FaultPlan plan{.seed = 11};
  plan.loss.probability = 0.3;
  LinkFaultInjector injector(make_plan(plan), 0);
  std::uint64_t lost = 0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    if (injector.drop_probe()) ++lost;
  }
  const double rate = static_cast<double>(lost) / kDraws;
  EXPECT_NEAR(rate, 0.3, 0.02);
  EXPECT_EQ(injector.stats().probes_lost, lost);
  EXPECT_EQ(injector.stats().burst_losses, 0u);  // no GE chain configured
}

TEST(LinkFaultInjectorTest, GilbertElliottProducesBursts) {
  FaultPlan plan{.seed = 13};
  plan.burst.enabled = true;
  plan.burst.p_good_to_bad = 0.05;
  plan.burst.p_bad_to_good = 0.2;
  plan.burst.loss_in_good = 0.0;
  plan.burst.loss_in_bad = 1.0;
  LinkFaultInjector injector(make_plan(plan), 0);

  // With loss only in the bad state, losses arrive in runs whose mean
  // length is the bad-state sojourn time 1/p_bad_to_good = 5.
  int runs = 0;
  std::uint64_t lost = 0;
  bool in_run = false;
  for (int i = 0; i < 20000; ++i) {
    const bool drop = injector.drop_probe();
    if (drop) {
      ++lost;
      if (!in_run) ++runs;
    }
    in_run = drop;
  }
  ASSERT_GT(runs, 0);
  ASSERT_GT(lost, 0u);
  const double mean_run = static_cast<double>(lost) / runs;
  EXPECT_GT(mean_run, 3.0);
  EXPECT_LT(mean_run, 8.0);
  // Every loss came from the chain, so both counters agree.
  EXPECT_EQ(injector.stats().burst_losses, injector.stats().probes_lost);
  EXPECT_EQ(injector.stats().probes_lost, lost);
}

TEST(LinkFaultInjectorTest, BurstLossesAreTheGilbertElliottSubset) {
  FaultPlan plan{.seed = 17};
  plan.loss.probability = 0.2;
  plan.burst.enabled = true;
  plan.burst.loss_in_bad = 0.9;
  LinkFaultInjector injector(make_plan(plan), 0);
  for (int i = 0; i < 5000; ++i) injector.drop_probe();
  EXPECT_GT(injector.stats().probes_lost, 0u);
  EXPECT_GT(injector.stats().burst_losses, 0u);
  EXPECT_LT(injector.stats().burst_losses, injector.stats().probes_lost);
}

TEST(LinkFaultInjectorTest, CorruptionCountsAndClampsToTheFloor) {
  FaultPlan plan{.seed = 19};
  plan.corruption.snr_outlier_probability = 0.5;
  plan.corruption.rssi_outlier_probability = 0.5;
  plan.corruption.outlier_magnitude_db = 6.0;
  plan.corruption.floor_clamp_probability = 0.25;
  plan.corruption.floor_db = -7.0;
  LinkFaultInjector injector(make_plan(plan), 0);

  std::uint64_t clamped = 0;
  for (int i = 0; i < 4000; ++i) {
    double snr = 12.0;
    double rssi = -50.0;
    injector.corrupt_reading(snr, rssi);
    if (snr == -7.0) ++clamped;
    // Outliers stay within the configured magnitude.
    if (snr != -7.0) {
      EXPECT_NEAR(snr, 12.0, 6.0 + 1e-12);
    }
    EXPECT_NEAR(rssi, -50.0, 6.0 + 1e-12);
  }
  const FaultStats& stats = injector.stats();
  EXPECT_EQ(stats.floor_clamps, clamped);
  EXPECT_NEAR(static_cast<double>(stats.snr_outliers) / 4000.0, 0.5, 0.05);
  EXPECT_NEAR(static_cast<double>(stats.rssi_outliers) / 4000.0, 0.5, 0.05);
  EXPECT_NEAR(static_cast<double>(stats.floor_clamps) / 4000.0, 0.25, 0.05);
}

TEST(LinkFaultInjectorTest, OverflowBurstReturnsTheConfiguredSize) {
  FaultPlan plan{.seed = 23};
  plan.ring.overflow_probability = 1.0;
  plan.ring.overflow_burst = 17;
  LinkFaultInjector injector(make_plan(plan), 0);
  EXPECT_EQ(injector.overflow_burst(), 17u);
  EXPECT_EQ(injector.stats().ring_overflows, 1u);
}

TEST(LinkFaultInjectorTest, FeedbackAccountingAccumulatesLatency) {
  FaultPlan plan{.seed = 29};
  plan.feedback.drop_probability = 1.0;
  plan.feedback.delay_probability = 1.0;
  plan.feedback.delay_us = 250.0;
  LinkFaultInjector injector(make_plan(plan), 0);

  EXPECT_TRUE(injector.drop_feedback_attempt());
  injector.note_feedback_retry(100.0);
  EXPECT_TRUE(injector.drop_feedback_attempt());
  injector.note_feedback_retry(200.0);
  injector.note_feedback_failure();
  EXPECT_EQ(injector.feedback_delay_us(), 250.0);

  const FaultStats& stats = injector.stats();
  EXPECT_EQ(stats.feedback_drops, 2u);
  EXPECT_EQ(stats.feedback_retries, 2u);
  EXPECT_EQ(stats.feedback_failures, 1u);
  EXPECT_EQ(stats.feedback_delays, 1u);
  EXPECT_EQ(stats.feedback_latency_us, 100.0 + 200.0 + 250.0);
}

TEST(LinkFaultInjectorTest, SamePlanAndLinkReplaysBitForBit) {
  FaultPlan plan{.seed = 31};
  plan.loss.probability = 0.4;
  plan.burst.enabled = true;
  plan.corruption.snr_outlier_probability = 0.3;
  plan.ring.duplicate_probability = 0.2;
  plan.feedback.drop_probability = 0.3;
  const auto shared = make_plan(plan);

  LinkFaultInjector a(shared, 3);
  LinkFaultInjector b(shared, 3);
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 40; ++i) {
      EXPECT_EQ(a.drop_probe(), b.drop_probe());
      double snr_a = 5.0, rssi_a = -60.0, snr_b = 5.0, rssi_b = -60.0;
      a.corrupt_reading(snr_a, rssi_a);
      b.corrupt_reading(snr_b, rssi_b);
      EXPECT_EQ(snr_a, snr_b);
      EXPECT_EQ(rssi_a, rssi_b);
      EXPECT_EQ(a.inject_duplicate(), b.inject_duplicate());
      EXPECT_EQ(a.drop_feedback_attempt(), b.drop_feedback_attempt());
    }
    a.next_round();
    b.next_round();
  }
  EXPECT_EQ(a.stats(), b.stats());
}

TEST(LinkFaultInjectorTest, LinksDrawIndependentSubstreams) {
  FaultPlan plan{.seed = 37};
  plan.loss.probability = 0.5;
  const auto shared = make_plan(plan);
  LinkFaultInjector a(shared, 0);
  LinkFaultInjector b(shared, 1);
  std::vector<bool> seq_a, seq_b;
  for (int i = 0; i < 64; ++i) {
    seq_a.push_back(a.drop_probe());
    seq_b.push_back(b.drop_probe());
  }
  EXPECT_NE(seq_a, seq_b);
}

TEST(LinkFaultInjectorTest, RoundsReseedIndependentlyOfDrawCount) {
  // Per-round reseeding: round r's sequence must not depend on how many
  // draws round r-1 made (links consume different amounts of randomness
  // per round, yet every round must stay replayable in isolation).
  FaultPlan plan{.seed = 41};
  plan.loss.probability = 0.5;
  const auto shared = make_plan(plan);

  LinkFaultInjector few(shared, 2);
  LinkFaultInjector many(shared, 2);
  few.drop_probe();
  for (int i = 0; i < 100; ++i) many.drop_probe();
  few.next_round();
  many.next_round();
  EXPECT_EQ(few.round(), 1u);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(few.drop_probe(), many.drop_probe()) << "draw " << i;
  }
}

TEST(FaultStatsTest, AccumulationSumsEveryCounter) {
  FaultStats a;
  a.probes_lost = 3;
  a.snr_outliers = 1;
  a.feedback_latency_us = 10.0;
  FaultStats b;
  b.probes_lost = 2;
  b.ring_duplicates = 5;
  b.feedback_latency_us = 2.5;
  a += b;
  EXPECT_EQ(a.probes_lost, 5u);
  EXPECT_EQ(a.snr_outliers, 1u);
  EXPECT_EQ(a.ring_duplicates, 5u);
  EXPECT_EQ(a.feedback_latency_us, 12.5);
  EXPECT_NE(a, FaultStats{});
}

}  // namespace
}  // namespace talon
