// Fixed log-spaced latency histogram.
//
// The serving layer exports selection-latency distributions; scrape
// output must be BIT-STABLE across builds and hosts, so the bucket
// boundaries are fixed integers chosen once -- powers of two in
// microseconds from 1 us -- never derived from observed data or floating
// arithmetic. Recording is a relaxed atomic increment per observation,
// so many workers can observe into one histogram without coordination;
// totals are exact once the recording threads are quiescent (the scrape
// path reads after a drain barrier).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace talon {

/// Log2-spaced histogram over integer microseconds: bucket k counts
/// observations <= 2^k us (k = 0..kBuckets-1), plus an overflow bucket
/// for everything larger. 24 buckets span 1 us .. ~8.4 s, which covers
/// any selection latency the serving layer can produce.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 24;

  LatencyHistogram() = default;

  /// Copying reads each counter with a relaxed load (scrape snapshot).
  LatencyHistogram(const LatencyHistogram& other) { *this = other; }
  LatencyHistogram& operator=(const LatencyHistogram& other) {
    for (std::size_t i = 0; i <= kBuckets; ++i) {
      counts_[i].store(other.counts_[i].load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    }
    count_.store(other.count_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    sum_us_.store(other.sum_us_.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
    return *this;
  }

  /// Upper bound of bucket k [us]; k == kBuckets is the overflow bucket
  /// (no finite bound).
  static std::uint64_t bucket_bound_us(std::size_t k) {
    return std::uint64_t{1} << k;
  }

  /// Record one observation. Thread-safe (relaxed increments).
  void observe_us(std::uint64_t us) {
    counts_[bucket_index(us)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_us_.fetch_add(us, std::memory_order_relaxed);
  }

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum_us() const { return sum_us_.load(std::memory_order_relaxed); }

  /// Count in bucket k (k <= kBuckets; kBuckets = overflow).
  std::uint64_t bucket_count(std::size_t k) const {
    return counts_[k].load(std::memory_order_relaxed);
  }

  /// The bucket an observation lands in.
  static std::size_t bucket_index(std::uint64_t us) {
    for (std::size_t k = 0; k < kBuckets; ++k) {
      if (us <= bucket_bound_us(k)) return k;
    }
    return kBuckets;
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets + 1> counts_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_us_{0};
};

}  // namespace talon
