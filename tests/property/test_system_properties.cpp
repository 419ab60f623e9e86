// Property-style sweeps (TEST_P) over system components: ring buffer,
// probing schedules, the timing model, and end-to-end CSS recovery over a
// dense direction sweep.
#include <gtest/gtest.h>

#include "src/antenna/codebook.hpp"
#include "src/core/css.hpp"
#include "src/firmware/ringbuffer.hpp"
#include "src/mac/schedule.hpp"
#include "src/mac/timing.hpp"
#include "tests/core/synthetic_table.hpp"

namespace talon {
namespace {

// --- Ring buffer FIFO/overwrite properties over capacities ------------------

class RingBufferProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RingBufferProperty, KeepsTheNewestCapacityEntries) {
  const std::size_t cap = GetParam();
  SweepInfoRingBuffer ring(cap);
  const std::size_t total = cap * 3 + 1;
  for (std::size_t i = 0; i < total; ++i) {
    ring.push(SweepInfoEntry{.sweep_index = 1, .sector_id = static_cast<int>(i)});
  }
  EXPECT_EQ(ring.size(), cap);
  EXPECT_EQ(ring.dropped(), total - cap);
  const auto out = ring.drain();
  ASSERT_EQ(out.size(), cap);
  for (std::size_t i = 0; i < cap; ++i) {
    EXPECT_EQ(out[i].sector_id, static_cast<int>(total - cap + i));
  }
}

TEST_P(RingBufferProperty, InterleavedPushDrainNeverLosesOrder) {
  const std::size_t cap = GetParam();
  SweepInfoRingBuffer ring(cap);
  int next_in = 0;
  int next_out = 0;
  for (int round = 0; round < 10; ++round) {
    const std::size_t burst = (round % static_cast<int>(cap)) + 1;
    for (std::size_t i = 0; i < burst && i < cap; ++i) {
      ring.push(SweepInfoEntry{.sector_id = next_in++});
    }
    for (const SweepInfoEntry& e : ring.drain()) {
      EXPECT_EQ(e.sector_id, next_out++);
    }
    next_out = next_in;  // anything dropped is gone for good
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, RingBufferProperty,
                         ::testing::Values(1u, 2u, 3u, 7u, 34u, 256u));

// --- Probing schedule properties over subset sizes ---------------------------

class ProbingScheduleProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ProbingScheduleProperty, PreservesStockSlotPositions) {
  Rng rng(GetParam());
  const auto subset =
      rng.sample_without_replacement(34, static_cast<int>(GetParam()));
  std::vector<int> ids;
  for (int idx : subset) ids.push_back(talon_tx_sector_ids()[static_cast<std::size_t>(idx)]);

  const auto probing = probing_burst_schedule(ids);
  const auto stock = sweep_burst_schedule();
  ASSERT_EQ(probing.size(), stock.size());
  std::size_t active = 0;
  for (std::size_t i = 0; i < probing.size(); ++i) {
    EXPECT_EQ(probing[i].cdown, stock[i].cdown);
    if (probing[i].sector_id) {
      ++active;
      // An active probing slot must carry the stock slot's sector.
      EXPECT_EQ(*probing[i].sector_id, *stock[i].sector_id);
    }
  }
  EXPECT_EQ(active, GetParam());
}

INSTANTIATE_TEST_SUITE_P(SubsetSizes, ProbingScheduleProperty,
                         ::testing::Values(1u, 2u, 6u, 14u, 20u, 33u, 34u));

// --- Timing model properties over probe counts -------------------------------

class TimingProperty : public ::testing::TestWithParam<int> {};

TEST_P(TimingProperty, MatchesClosedForm) {
  const TimingModel t;
  const int m = GetParam();
  EXPECT_NEAR(t.mutual_training_time_ms(m), (2.0 * m * 18.0 + 49.1) / 1000.0, 1e-12);
  EXPECT_GT(t.speedup_vs_full_sweep(m), 0.0);
}

TEST_P(TimingProperty, SpeedupConsistentWithTimes) {
  const TimingModel t;
  const int m = GetParam();
  EXPECT_NEAR(t.speedup_vs_full_sweep(m) * t.mutual_training_time_ms(m),
              t.mutual_training_time_ms(kFullSweepProbes), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(ProbeCounts, TimingProperty,
                         ::testing::Range(1, 40, 4));

// --- CSS recovery property: dense sweep over true directions ----------------

class CssRecoveryProperty : public ::testing::TestWithParam<double> {};

TEST_P(CssRecoveryProperty, IdealProbesRecoverEveryInPlaneDirection) {
  // With noise-free probes of a 5-sector subset, the azimuth estimate must
  // land within one lobe width of the truth for every in-plane direction
  // in the covered span -- a sweep the single-direction unit tests cannot
  // provide.
  const PatternTable table = testutil::synthetic_table();
  const CompressiveSectorSelector css(
      table, CssConfig{.search_grid = testutil::synthetic_grid()});
  const double truth_az = GetParam();
  const auto probes =
      testutil::ideal_probes(table, {1, 3, 5, 7, 9}, {truth_az, 0.0});
  CorrelationWorkspace ws;
  const auto estimated = css.select(probes, ws).estimated_direction;
  ASSERT_TRUE(estimated.has_value());
  EXPECT_LE(azimuth_distance_deg(estimated->azimuth_deg, truth_az), 9.0)
      << "truth " << truth_az;
}

INSTANTIATE_TEST_SUITE_P(Directions, CssRecoveryProperty,
                         ::testing::Range(-48.0, 48.5, 6.0));

}  // namespace
}  // namespace talon
