#include "src/common/units.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace talon {
namespace {

TEST(Units, DbToLinearKnownValues) {
  EXPECT_DOUBLE_EQ(db_to_linear(0.0), 1.0);
  EXPECT_DOUBLE_EQ(db_to_linear(10.0), 10.0);
  EXPECT_DOUBLE_EQ(db_to_linear(20.0), 100.0);
  EXPECT_NEAR(db_to_linear(3.0), 2.0, 0.01);
  EXPECT_NEAR(db_to_linear(-10.0), 0.1, 1e-12);
}

/// std::pow(10, db / 10) on a value the compiler cannot fold, so both
/// sides of a comparison come from the same runtime pow.
double pow_reference(double db) {
  volatile double v = db;
  return std::pow(10.0, v / 10.0);
}

/// Bit equality, with every NaN equal to every other.
void expect_same_bits(double db) {
  const double got = db_to_linear(db);
  const double want = pow_reference(db);
  if (std::isnan(want)) {
    EXPECT_TRUE(std::isnan(got)) << db;
  } else {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(want))
        << "db = " << db << ": got " << got << ", pow gives " << want;
  }
}

TEST(DbToLinear, EveryQuarterStepMatchesPowBitForBit) {
  // +-128 dB in 0.25 dB steps is the table's range; one step beyond each
  // end goes through pow, and must agree just the same.
  for (int k = -4 * 128 - 1; k <= 4 * 128 + 1; ++k) expect_same_bits(k / 4.0);
}

TEST(DbToLinear, OffGridValuesMatchPowBitForBit) {
  // One ulp either side of a quarter step is not on the table's lattice.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double step : {-128.25, -128.0, -127.75, -7.0, -0.25, 0.0, 0.25, 3.0, 12.0,
                            127.75, 128.0, 128.25}) {
    expect_same_bits(std::nextafter(step, kInf));
    expect_same_bits(std::nextafter(step, -kInf));
  }
  for (const double db : {0.1, -0.1, 1.0 / 3.0, 0.125, -0.125, 12.3, -63.9, 1000.0, -1000.0}) {
    expect_same_bits(db);
  }
}

TEST(DbToLinear, SignedZerosTinyHugeAndNonFiniteMatchPow) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<double> inputs{
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      -std::numeric_limits<double>::min(),
      1e-300,
      -1e-300,
      1e300,
      -1e300,
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      4000.0,
      -4000.0,
      kInf,
      -kInf,
      std::numeric_limits<double>::quiet_NaN(),
  };
  for (const double db : inputs) expect_same_bits(db);
  EXPECT_EQ(db_to_linear(0.0), 1.0);
  EXPECT_EQ(db_to_linear(-0.0), 1.0);
  EXPECT_EQ(db_to_linear(kInf), kInf);
  EXPECT_EQ(db_to_linear(-kInf), 0.0);
  EXPECT_TRUE(std::isnan(db_to_linear(std::numeric_limits<double>::quiet_NaN())));
}

TEST(Units, LinearToDbKnownValues) {
  EXPECT_DOUBLE_EQ(linear_to_db(1.0), 0.0);
  EXPECT_DOUBLE_EQ(linear_to_db(10.0), 10.0);
  EXPECT_NEAR(linear_to_db(0.5), -3.0103, 1e-3);
}

TEST(Units, LinearToDbClampsZeroInsteadOfInf) {
  const double v = linear_to_db(0.0);
  EXPECT_TRUE(std::isfinite(v));
  EXPECT_LT(v, -200.0);
}

TEST(Units, DbmMwRoundTrip) {
  for (double dbm = -90.0; dbm <= 30.0; dbm += 7.3) {
    EXPECT_NEAR(mw_to_dbm(dbm_to_mw(dbm)), dbm, 1e-9);
  }
}

TEST(Units, RoundTripDbLinear) {
  for (double db = -60.0; db <= 60.0; db += 3.7) {
    EXPECT_NEAR(linear_to_db(db_to_linear(db)), db, 1e-9);
  }
}

TEST(Units, ThermalNoiseAt80211adBandwidth) {
  // -174 + 10log10(1.76e9) + 10 ~ -71.5 dBm, the standard 802.11ad figure.
  EXPECT_NEAR(thermal_noise_dbm(kChannelBandwidthHz, 10.0), -71.5, 0.1);
}

TEST(Units, WavelengthAt60GHz) {
  EXPECT_NEAR(kWavelengthM, 4.957e-3, 1e-5);
}

}  // namespace
}  // namespace talon
