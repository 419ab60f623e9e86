// Physical units and conversions used throughout the library.
//
// Powers travel through the code in two domains:
//   - logarithmic (dB / dBm), the domain the firmware reports SNR in, and
//   - linear (mW or unit-less power ratio), the domain correlation math
//     (Eqs. 2 and 5 of the paper) operates in.
// Keeping the conversions in one place avoids the classic 10-vs-20 log bugs.
#pragma once

#include <cmath>

namespace talon {

/// Speed of light [m/s].
inline constexpr double kSpeedOfLight = 299'792'458.0;

/// IEEE 802.11ad channel 2 center frequency [Hz] (the Talon AD7200 default).
inline constexpr double kCarrierFrequencyHz = 60.48e9;

/// Occupied channel bandwidth of an 802.11ad channel [Hz].
inline constexpr double kChannelBandwidthHz = 1.76e9;

/// Carrier wavelength [m] (~4.96 mm at 60.48 GHz).
inline constexpr double kWavelengthM = kSpeedOfLight / kCarrierFrequencyHz;

/// Largest |dB| value the correlation math admits, in readings and in
/// pattern tables: 10^(+-100) and its square stay finite and nonzero, and
/// so does a sum of a few hundred such squares.
inline constexpr double kDbEnvelope = 1000.0;

/// Convert a power ratio from dB to linear scale: std::pow(10, db / 10),
/// bit for bit. The firmware reports SNR in 0.25 dB and RSSI in 1 dB
/// steps, so every multiple of 0.25 dB within +-128 dB is served from a
/// table of std::pow's own results; any other input (NaN and +-inf
/// included) calls std::pow.
double db_to_linear(double db);

/// Convert a linear power ratio to dB. Clamps tiny inputs to avoid -inf.
double linear_to_db(double linear);

/// Convert dBm to milliwatts.
double dbm_to_mw(double dbm);

/// Convert milliwatts to dBm.
double mw_to_dbm(double mw);

/// Thermal noise power over `bandwidth_hz` at `noise_figure_db` [dBm].
/// kT = -174 dBm/Hz at 290 K.
double thermal_noise_dbm(double bandwidth_hz, double noise_figure_db);

}  // namespace talon
