#include "src/common/stats.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "src/common/error.hpp"

namespace talon {
namespace {

TEST(Stats, MeanAndStddev) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(v), 2.5);
}

TEST(Stats, MeanRejectsEmpty) {
  const std::vector<double> empty;
  EXPECT_THROW(mean(empty), PreconditionError);
}

TEST(Stats, QuantileInterpolates) {
  const std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 2.5);
}

TEST(Stats, QuantileIgnoresInputOrder) {
  const std::vector<double> v{9.0, 1.0, 5.0, 3.0, 7.0};
  EXPECT_DOUBLE_EQ(median(v), 5.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 9.0);
}

TEST(Stats, QuantileRejectsBadQ) {
  const std::vector<double> v{1.0};
  EXPECT_THROW(quantile(v, -0.1), PreconditionError);
  EXPECT_THROW(quantile(v, 1.1), PreconditionError);
}

TEST(Stats, EmptyInputThrowsAcrossTheAggregates) {
  // The documented contract: no aggregate fabricates a value for zero
  // samples -- callers with a legitimately empty sample set must branch
  // and report a sentinel (sim/mobility's kNoRealignSentinel pattern).
  const std::vector<double> empty;
  EXPECT_THROW(quantile(empty, 0.5), PreconditionError);
  EXPECT_THROW(median(empty), PreconditionError);
  EXPECT_THROW(box_stats(empty), PreconditionError);
  EXPECT_THROW(median_abs_deviation(empty), PreconditionError);
  const std::vector<int> empty_ints;
  EXPECT_THROW(mode_fraction(empty_ints), PreconditionError);
}

TEST(Stats, SingleSampleIsTheSmallestLegalInput) {
  // One sample is legal everywhere the contract says "non-empty": every
  // quantile collapses onto it.
  const std::vector<double> one{7.5};
  EXPECT_DOUBLE_EQ(quantile(one, 0.0), 7.5);
  EXPECT_DOUBLE_EQ(quantile(one, 0.9), 7.5);
  const BoxStats box = box_stats(one);
  EXPECT_DOUBLE_EQ(box.median, 7.5);
  EXPECT_DOUBLE_EQ(box.whisker_low, 7.5);
  EXPECT_DOUBLE_EQ(box.whisker_high, 7.5);
}

TEST(Stats, MedianAbsDeviation) {
  const std::vector<double> v{1.0, 1.0, 2.0, 2.0, 100.0};
  // median = 2, deviations {1,1,0,0,98}, MAD = 1.
  EXPECT_DOUBLE_EQ(median_abs_deviation(v), 1.0);
}

TEST(Stats, BoxStatsOrdering) {
  std::vector<double> v;
  for (int i = 0; i < 1000; ++i) v.push_back(static_cast<double>(i));
  const BoxStats b = box_stats(v);
  EXPECT_LE(b.whisker_low, b.q25);
  EXPECT_LE(b.q25, b.median);
  EXPECT_LE(b.median, b.q75);
  EXPECT_LE(b.q75, b.whisker_high);
  EXPECT_NEAR(b.median, 499.5, 1e-9);
  EXPECT_NEAR(b.whisker_high, 994.0, 1.0);  // 99.5% quantile
}

TEST(Stats, ModeFraction) {
  const std::vector<int> v{3, 3, 3, 7, 7, 1, 3, 3, 3, 3};
  EXPECT_DOUBLE_EQ(mode_fraction(v), 0.7);
}

TEST(Stats, ModeFractionAllSame) {
  const std::vector<int> v{5, 5, 5};
  EXPECT_DOUBLE_EQ(mode_fraction(v), 1.0);
}

TEST(Stats, RunningStatsTracksMinMaxMean) {
  RunningStats rs;
  rs.add(3.0);
  rs.add(-1.0);
  rs.add(4.0);
  EXPECT_EQ(rs.count(), 3u);
  EXPECT_DOUBLE_EQ(rs.mean(), 2.0);
  EXPECT_DOUBLE_EQ(rs.min(), -1.0);
  EXPECT_DOUBLE_EQ(rs.max(), 4.0);
}

TEST(Stats, RunningStatsEmptyThrows) {
  RunningStats rs;
  EXPECT_THROW(rs.mean(), PreconditionError);
}

}  // namespace
}  // namespace talon
