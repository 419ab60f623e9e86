#include "src/common/units.hpp"

#include <algorithm>
#include <array>

namespace talon {

namespace {

/// Quarter-dB steps either side of 0 dB that db_to_linear serves from its
/// table: every k / 4 dB with |k| <= kQuarterSteps.
constexpr int kQuarterSteps = 4 * 128;

}  // namespace

double db_to_linear(double db) {
  // std::pow's own results for every k / 4 dB, so a table hit is bit for
  // bit the value the fallback below would compute: for such inputs
  // db / 10.0 and (k / 4.0) / 10.0 are the same double.
  static const auto kTable = [] {
    std::array<double, 2 * kQuarterSteps + 1> table{};
    for (std::size_t i = 0; i < table.size(); ++i) {
      const int k = static_cast<int>(i) - kQuarterSteps;
      table[i] = std::pow(10.0, (k / 4.0) / 10.0);
    }
    return table;
  }();
  // Scaling by 4 is exact, and NaN fails both comparisons.
  const double quarters = db * 4.0;
  if (quarters >= -kQuarterSteps && quarters <= kQuarterSteps) {
    const int k = static_cast<int>(quarters);
    if (k == quarters) return kTable[static_cast<std::size_t>(k + kQuarterSteps)];
  }
  return std::pow(10.0, db / 10.0);
}

double linear_to_db(double linear) {
  constexpr double kFloor = 1e-30;  // avoid -inf for zero power
  return 10.0 * std::log10(std::max(linear, kFloor));
}

double dbm_to_mw(double dbm) { return std::pow(10.0, dbm / 10.0); }

double mw_to_dbm(double mw) { return linear_to_db(mw); }

double thermal_noise_dbm(double bandwidth_hz, double noise_figure_db) {
  return -174.0 + 10.0 * std::log10(bandwidth_hz) + noise_figure_db;
}

}  // namespace talon
