#include "src/common/histogram.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

namespace talon {
namespace {

TEST(LatencyHistogram, BucketBoundsArePinnedPowersOfTwo) {
  // The exposition format commits to these boundaries; they must never
  // drift (goldens and dashboards depend on them).
  EXPECT_EQ(LatencyHistogram::bucket_bound_us(0), 1u);
  EXPECT_EQ(LatencyHistogram::bucket_bound_us(1), 2u);
  EXPECT_EQ(LatencyHistogram::bucket_bound_us(10), 1024u);
  EXPECT_EQ(LatencyHistogram::bucket_bound_us(LatencyHistogram::kBuckets - 1),
            std::uint64_t{1} << 23);  // ~8.4 s
}

TEST(LatencyHistogram, BucketIndexMatchesUpperBoundSemantics) {
  // Bucket k holds us <= 2^k: boundary values land in the LOWER bucket.
  EXPECT_EQ(LatencyHistogram::bucket_index(0), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_index(1), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_index(2), 1u);
  EXPECT_EQ(LatencyHistogram::bucket_index(3), 2u);
  EXPECT_EQ(LatencyHistogram::bucket_index(4), 2u);
  EXPECT_EQ(LatencyHistogram::bucket_index(5), 3u);
  EXPECT_EQ(LatencyHistogram::bucket_index(1024), 10u);
  EXPECT_EQ(LatencyHistogram::bucket_index(1025), 11u);
  // Past the last finite bound -> overflow bucket.
  EXPECT_EQ(LatencyHistogram::bucket_index((std::uint64_t{1} << 23) + 1),
            LatencyHistogram::kBuckets);
}

TEST(LatencyHistogram, ObserveAccumulatesCountSumAndBuckets) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum_us(), 0u);
  h.observe_us(1);
  h.observe_us(3);
  h.observe_us(3);
  h.observe_us(100);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum_us(), 107u);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(2), 2u);
  EXPECT_EQ(h.bucket_count(7), 1u);  // 100 <= 128
  EXPECT_EQ(h.bucket_count(LatencyHistogram::kBuckets), 0u);
}

TEST(LatencyHistogram, CopyIsAScrapeSnapshot) {
  LatencyHistogram h;
  h.observe_us(5);
  h.observe_us(7);
  LatencyHistogram snap = h;
  h.observe_us(9);
  EXPECT_EQ(snap.count(), 2u);
  EXPECT_EQ(snap.sum_us(), 12u);
  EXPECT_EQ(h.count(), 3u);
}

TEST(LatencyHistogram, ConcurrentObserversLoseNothing) {
  LatencyHistogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.observe_us(static_cast<std::uint64_t>(t + 1));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.sum_us(), std::uint64_t{(1 + 2 + 3 + 4) * kPerThread});
  // 1,2 us -> buckets 0,1; 3,4 us -> bucket 2.
  EXPECT_EQ(h.bucket_count(0), static_cast<std::uint64_t>(kPerThread));
  EXPECT_EQ(h.bucket_count(1), static_cast<std::uint64_t>(kPerThread));
  EXPECT_EQ(h.bucket_count(2), static_cast<std::uint64_t>(2 * kPerThread));
}

}  // namespace
}  // namespace talon
