// Descriptive statistics used by the experiment harnesses: the box-plot
// summaries of Fig. 7, the stability metric of Fig. 8 and the averaged
// losses of Fig. 9.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace talon {

// Empty-input contract: none of these aggregates has a meaningful value
// for zero samples, so every function below that says "Requires a
// non-empty input" throws PreconditionError (TALON_EXPECTS) on an empty
// span rather than returning a fabricated number. Callers that can
// legitimately see zero samples must branch and report a sentinel
// instead (see sim/mobility.hpp's kNoRealignSentinel for the pattern).

/// Arithmetic mean. Requires a non-empty input.
double mean(std::span<const double> values);

/// Linear-interpolated quantile, q in [0, 1]. Requires a non-empty input
/// (throws PreconditionError on an empty span -- there is no sample to
/// interpolate between).
double quantile(std::span<const double> values, double q);

/// Median (0.5 quantile).
double median(std::span<const double> values);

/// Median absolute deviation (robust spread estimate), unscaled.
double median_abs_deviation(std::span<const double> values);

/// Box-plot summary matching the paper's Fig. 7 convention:
/// box = 50% bounds (q25/q75), whiskers = 99% bounds (q0.5/q99.5),
/// dash = median.
struct BoxStats {
  double median{0.0};
  double q25{0.0};
  double q75{0.0};
  double whisker_low{0.0};   // 0.5% quantile
  double whisker_high{0.0};  // 99.5% quantile
};

/// Compute the Fig. 7 box summary. Requires a non-empty input (throws
/// PreconditionError on an empty span, like the quantiles it is built
/// from).
BoxStats box_stats(std::span<const double> values);

/// Fraction of samples equal to the most frequent value ("selection
/// stability" in Sec. 6.3: time spent in the most prominent sector).
/// Requires a non-empty input.
double mode_fraction(std::span<const int> values);

/// Running accumulator for mean/min/max without storing samples.
class RunningStats {
 public:
  void add(double v);
  std::size_t count() const { return count_; }
  double mean() const;
  double min() const;
  double max() const;

 private:
  std::size_t count_{0};
  double sum_{0.0};
  double min_{0.0};
  double max_{0.0};
};

}  // namespace talon
