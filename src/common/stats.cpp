#include "src/common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>

#include "src/common/error.hpp"

namespace talon {

double mean(std::span<const double> values) {
  TALON_EXPECTS(!values.empty());
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double quantile(std::span<const double> values, double q) {
  TALON_EXPECTS(!values.empty());
  TALON_EXPECTS(q >= 0.0 && q <= 1.0);
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = static_cast<std::size_t>(std::ceil(pos));
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double median(std::span<const double> values) { return quantile(values, 0.5); }

double median_abs_deviation(std::span<const double> values) {
  const double med = median(values);
  std::vector<double> dev;
  dev.reserve(values.size());
  for (double v : values) dev.push_back(std::fabs(v - med));
  return median(dev);
}

BoxStats box_stats(std::span<const double> values) {
  return BoxStats{
      .median = quantile(values, 0.5),
      .q25 = quantile(values, 0.25),
      .q75 = quantile(values, 0.75),
      .whisker_low = quantile(values, 0.005),
      .whisker_high = quantile(values, 0.995),
  };
}

double mode_fraction(std::span<const int> values) {
  TALON_EXPECTS(!values.empty());
  std::map<int, std::size_t> counts;
  for (int v : values) ++counts[v];
  std::size_t best = 0;
  for (const auto& [value, count] : counts) best = std::max(best, count);
  return static_cast<double>(best) / static_cast<double>(values.size());
}

void RunningStats::add(double v) {
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  sum_ += v;
  ++count_;
}

double RunningStats::mean() const {
  TALON_EXPECTS(count_ > 0);
  return sum_ / static_cast<double>(count_);
}

double RunningStats::min() const {
  TALON_EXPECTS(count_ > 0);
  return min_;
}

double RunningStats::max() const {
  TALON_EXPECTS(count_ > 0);
  return max_;
}

}  // namespace talon
