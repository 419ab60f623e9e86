// The SIMD tile kernels' five contracts, tested directly:
//
//   1. TileDots -- every compiled-in variant (scalar, AVX2, NEON) is
//      bit-identical on every input: random tile blocks read through row
//      offsets in shuffled order, with duplicate rows and the block's
//      last row, all M values including the degenerate 1, zero rows, and
//      the SNR-only (pr == nullptr) shape.
//   2. TileStats -- every variant of the per-tile panel statistics
//      kernel (root norms and shares) equals the statistics' definition
//      bit for bit: ragged tails, zero-norm points and tiles, duplicate
//      rows, every M from 1 past the block's rows, subnormal responses
//      and rows, and the kDbEnvelope edge.
//   3. SimdDispatch -- the runtime dispatch honors the programmatic
//      override (clamped to the host), and the whole argmax-equals-
//      surface property holds with the scalar fallback forced, so the
//      suite pins correctness independently of the host CPU. (CI also
//      runs the full ctest suite under TALON_SIMD=scalar.)
//   4. TileBound -- on real cached panels every fine and coarse tile's
//      pruning bound dominates the surface W at every point of the tile,
//      the soundness argument that lets the argmax skip tiles and stay
//      bit-identical to the full surface peak.
//   5. TileW -- every variant of the per-tile surface kernel equals the
//      scalar reference bit for bit (and the reference the definition):
//      zero-root points, ragged tails, subnormals, +-1000 dB responses
//      and probe norms at both extremes, read from and written to
//      unaligned arrays.
//
// Plus the batched argmax (K sweeps; a same-subset group shares its panel
// and each member walks alone) against the single-sweep argmax, its walk
// counters against the single-sweep walks', the walk's peak and rival
// against the full surface
// on hostile sweeps, and the response matrix's alignment contract on grids
// whose point count leaves every kind of ragged tail tile.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "src/common/aligned.hpp"
#include "src/common/angles.hpp"
#include "src/common/cpufeatures.hpp"
#include "src/core/correlation.hpp"
#include "src/core/css.hpp"
#include "src/core/response_matrix.hpp"
#include "src/core/tile_dots.hpp"
#include "tests/core/synthetic_table.hpp"

namespace talon {
namespace {

using testutil::ideal_probes;
using testutil::synthetic_grid;
using testutil::synthetic_table;

constexpr std::size_t kTile = SubsetPanel::kTilePoints;

using AlignedBlock =
    std::vector<double, AlignedAllocator<double, ResponseMatrix::kValuesAlignment>>;

/// Rows (sector slots) of the random tile blocks: the measured codebook's
/// 35 patterns.
constexpr std::size_t kBlockRows = 35;

/// A random tile block (kBlockRows rows of kTilePoints), honoring the
/// matrix's alignment contract. Values span signs and magnitudes;
/// occasional exact zeros mimic the padded ragged tail.
AlignedBlock random_block(std::mt19937_64& rng) {
  std::uniform_real_distribution<double> value(-4.0, 4.0);
  std::uniform_int_distribution<int> zero(0, 9);
  AlignedBlock block(kBlockRows * kTile);
  for (double& v : block) v = zero(rng) == 0 ? 0.0 : value(rng);
  return block;
}

/// Row offsets of m sequence positions: distinct rows in shuffled order,
/// or -- when `duplicates` -- drawn with repetition. The block's last row
/// is always among them.
std::vector<std::size_t> random_rows(std::mt19937_64& rng, std::size_t m,
                                     bool duplicates) {
  std::vector<std::size_t> slots(kBlockRows);
  for (std::size_t s = 0; s < kBlockRows; ++s) slots[s] = s;
  std::shuffle(slots.begin(), slots.end(), rng);
  std::uniform_int_distribution<std::size_t> any(0, kBlockRows - 1);
  std::vector<std::size_t> rows(m);
  for (std::size_t mm = 0; mm < m; ++mm) {
    rows[mm] = (duplicates ? slots[any(rng)] : slots[mm % kBlockRows]) * kTile;
  }
  if (duplicates && m >= 2) rows[m / 2] = rows[0];
  std::uniform_int_distribution<std::size_t> at(0, m - 1);
  rows[at(rng)] = (kBlockRows - 1) * kTile;
  return rows;
}

std::vector<double> random_row(std::mt19937_64& rng, std::size_t m) {
  std::uniform_real_distribution<double> value(-3.0, 3.0);
  std::vector<double> row(m);
  for (double& v : row) v = value(rng);
  return row;
}

void expect_rows_equal(const double* a, const double* b) {
  for (std::size_t g = 0; g < kTile; ++g) {
    EXPECT_EQ(a[g], b[g]) << "lane " << g;  // bit-identical, not approximate
  }
}

TEST(TileDots, AllVariantsBitIdenticalToScalarRandomized) {
  std::mt19937_64 rng(20260807);
  for (std::size_t m = 1; m <= 40; ++m) {
    for (int trial = 0; trial < 30; ++trial) {
      const AlignedBlock block = random_block(rng);
      const std::vector<std::size_t> rows = random_rows(rng, m, trial % 3 == 0);
      const std::vector<double> ps = random_row(rng, m);
      const std::vector<double> pr = random_row(rng, m);

      std::vector<double> ref_s(kTile), ref_r(kTile);
      tile_dots_scalar(block.data(), rows.data(), ps.data(), pr.data(), m,
                       ref_s.data(), ref_r.data());
      // The scalar kernel is the plain ascending-m sum of each point.
      for (std::size_t gi = 0; gi < kTile; ++gi) {
        double s = 0.0;
        double r = 0.0;
        for (std::size_t mm = 0; mm < m; ++mm) {
          s += ps[mm] * block[rows[mm] + gi];
          r += pr[mm] * block[rows[mm] + gi];
        }
        ASSERT_EQ(ref_s[gi], s) << "lane " << gi;
        ASSERT_EQ(ref_r[gi], r) << "lane " << gi;
      }

      // Deliberately unaligned outputs: only `block` carries the contract.
      std::vector<double> out_s(kTile + 1), out_r(kTile + 1);
#if defined(TALON_HAVE_AVX2_KERNEL)
      if (detected_simd_level() == SimdLevel::kAvx2) {
        tile_dots_avx2(block.data(), rows.data(), ps.data(), pr.data(), m,
                       out_s.data() + 1, out_r.data() + 1);
        expect_rows_equal(ref_s.data(), out_s.data() + 1);
        expect_rows_equal(ref_r.data(), out_r.data() + 1);
      }
#endif
#if defined(__aarch64__) || defined(_M_ARM64)
      tile_dots_neon(block.data(), rows.data(), ps.data(), pr.data(), m,
                     out_s.data() + 1, out_r.data() + 1);
      expect_rows_equal(ref_s.data(), out_s.data() + 1);
      expect_rows_equal(ref_r.data(), out_r.data() + 1);
#endif
      // The dispatched entry point, whatever it resolved to.
      tile_dots(block.data(), rows.data(), ps.data(), pr.data(), m, out_s.data() + 1,
                out_r.data() + 1);
      expect_rows_equal(ref_s.data(), out_s.data() + 1);
      expect_rows_equal(ref_r.data(), out_r.data() + 1);
    }
  }
}

TEST(TileDots, SnrOnlyShapeBitIdentical) {
  std::mt19937_64 rng(99);
  for (std::size_t m : {std::size_t{1}, std::size_t{3}, std::size_t{8},
                        std::size_t{14}, std::size_t{17}, std::size_t{35}}) {
    for (const bool duplicates : {false, true}) {
      const AlignedBlock block = random_block(rng);
      const std::vector<std::size_t> rows = random_rows(rng, m, duplicates);
      const std::vector<double> ps = random_row(rng, m);
      std::vector<double> ref_s(kTile), out_s(kTile);
      tile_dots_scalar(block.data(), rows.data(), ps.data(), nullptr, m, ref_s.data(),
                       nullptr);
#if defined(TALON_HAVE_AVX2_KERNEL)
      if (detected_simd_level() == SimdLevel::kAvx2) {
        tile_dots_avx2(block.data(), rows.data(), ps.data(), nullptr, m, out_s.data(),
                       nullptr);
        expect_rows_equal(ref_s.data(), out_s.data());
      }
#endif
#if defined(__aarch64__) || defined(_M_ARM64)
      tile_dots_neon(block.data(), rows.data(), ps.data(), nullptr, m, out_s.data(),
                     nullptr);
      expect_rows_equal(ref_s.data(), out_s.data());
#endif
      tile_dots(block.data(), rows.data(), ps.data(), nullptr, m, out_s.data(), nullptr);
      expect_rows_equal(ref_s.data(), out_s.data());
    }
  }
}

// --- per-tile panel statistics ------------------------------------------------

/// tile_stats' outputs for one tile.
struct TileStats {
  std::vector<double> root;
  std::vector<double> u;
};

/// The statistics straight from their definition (core/tile_dots.hpp),
/// point by point.
TileStats reference_tile_stats(const AlignedBlock& block,
                               const std::vector<std::size_t>& rows) {
  const std::size_t m = rows.size();
  TileStats ref{std::vector<double>(kTile, 0.0), std::vector<double>(m, 0.0)};
  for (std::size_t gi = 0; gi < kTile; ++gi) {
    double norm = 0.0;
    for (std::size_t mm = 0; mm < m; ++mm) {
      const double x = block[rows[mm] + gi];
      norm += x * x;
    }
    ref.root[gi] = std::sqrt(norm);
    if (!(norm > 0.0)) continue;
    const double inv_norm = 1.0 / std::sqrt(norm);
    for (std::size_t mm = 0; mm < m; ++mm) {
      ref.u[mm] = std::max(ref.u[mm], std::abs(block[rows[mm] + gi]) * inv_norm);
    }
  }
  return ref;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Every compiled-in statistics variant, and the dispatched entry point,
/// against the definition: bit for bit, into deliberately unaligned
/// outputs whose first element no variant may touch.
void expect_tile_stats_exact(const AlignedBlock& block,
                             const std::vector<std::size_t>& rows,
                             const std::string& where) {
  const std::size_t m = rows.size();
  const TileStats ref = reference_tile_stats(block, rows);
  const auto check = [&](TileStatsFn fn, const char* name) {
    std::vector<double> root(kTile + 1, -1.0);
    std::vector<double> u(m + 1, -1.0);
    fn(block.data(), rows.data(), m, root.data() + 1, u.data() + 1);
    EXPECT_EQ(bits(root[0]), bits(-1.0)) << name << " " << where;
    EXPECT_EQ(bits(u[0]), bits(-1.0)) << name << " " << where;
    for (std::size_t gi = 0; gi < kTile; ++gi) {
      EXPECT_EQ(bits(root[gi + 1]), bits(ref.root[gi]))
          << name << " " << where << " lane " << gi;
    }
    for (std::size_t mm = 0; mm < m; ++mm) {
      EXPECT_EQ(bits(u[mm + 1]), bits(ref.u[mm])) << name << " " << where << " m " << mm;
    }
  };
  check(&tile_stats_scalar, "scalar");
#if defined(TALON_HAVE_AVX2_KERNEL)
  if (detected_simd_level() == SimdLevel::kAvx2) check(&tile_stats_avx2, "avx2");
#endif
  check(&tile_stats, "dispatched");
}

TEST(TileStats, AllVariantsMatchTheDefinitionRandomized) {
  // M from 1 past the block's kBlockRows rows (so rows repeat), distinct
  // and duplicate slots, blocks with scattered exact zeros.
  std::mt19937_64 rng(20261018);
  for (std::size_t m = 1; m <= 40; ++m) {
    for (int trial = 0; trial < 10; ++trial) {
      const AlignedBlock block = random_block(rng);
      expect_tile_stats_exact(block, random_rows(rng, m, trial % 2 == 0),
                              "M=" + std::to_string(m));
    }
  }
}

TEST(TileStats, RaggedAndZeroNormTiles) {
  // A ragged tail tile (zero padding past `count` points in every row),
  // points that are zero in every probed row, and a tile with no
  // positive norm at all: every root and share 0.
  std::mt19937_64 rng(7);
  for (const std::size_t count : {std::size_t{1}, std::size_t{5}, std::size_t{31}}) {
    for (const std::size_t m : {std::size_t{1}, std::size_t{14}, std::size_t{36}}) {
      AlignedBlock block = random_block(rng);
      for (std::size_t s = 0; s < kBlockRows; ++s) {
        for (std::size_t gi = count; gi < kTile; ++gi) block[s * kTile + gi] = 0.0;
        for (std::size_t gi = 0; gi < count; gi += 3) block[s * kTile + gi] = 0.0;
      }
      expect_tile_stats_exact(
          block, random_rows(rng, m, true),
          "count=" + std::to_string(count) + " M=" + std::to_string(m));
    }
  }
  const AlignedBlock empty(kBlockRows * kTile, 0.0);
  const std::vector<std::size_t> rows{0, 3 * kTile, 0};
  expect_tile_stats_exact(empty, rows, "all zero");
  const TileStats ref = reference_tile_stats(empty, rows);
  EXPECT_EQ(ref.root, std::vector<double>(kTile, 0.0));
}

TEST(TileStats, ExtremeMagnitudes) {
  // Subnormal responses (whose squares underflow to a zero norm, or stay
  // subnormal), and responses at the kDbEnvelope edge in both domains:
  // 10^(+-100) linear and +-1000 dB, mixed with ordinary values.
  const double tiny = std::numeric_limits<double>::denorm_min();
  const std::vector<double> values{tiny,   7 * tiny, 1e-310, 1e-160, 1e-100,
                                   1e100,  1000.0,   -1000.0, 0.5,   -3.0};
  std::mt19937_64 rng(11);
  std::uniform_int_distribution<std::size_t> pick(0, values.size() - 1);
  for (int trial = 0; trial < 40; ++trial) {
    AlignedBlock block(kBlockRows * kTile);
    for (double& v : block) v = values[pick(rng)];
    // Some points subnormal-only, so their norm underflows to 0 while
    // their responses are not zero.
    for (std::size_t s = 0; s < kBlockRows; ++s) block[s * kTile + trial % kTile] = tiny;
    const std::size_t m = 1 + static_cast<std::size_t>(trial) % 38;
    expect_tile_stats_exact(block, random_rows(rng, m, trial % 3 == 0),
                            "trial " + std::to_string(trial));
  }
  // Every row at the linear envelope edge: the norms stay finite.
  const AlignedBlock hot(kBlockRows * kTile, 1e100);
  std::vector<std::size_t> rows(kBlockRows);
  for (std::size_t s = 0; s < kBlockRows; ++s) rows[s] = s * kTile;
  expect_tile_stats_exact(hot, rows, "all 1e100");
  // Whole rows subnormal: beside ordinary rows their shares are tiny,
  // and on their own every norm underflows to 0, so every share is 0.
  for (std::size_t m = 1; m <= 9; ++m) {
    AlignedBlock mixed = random_block(rng);
    for (std::size_t s = 0; s < kBlockRows; s += 2) {
      for (std::size_t gi = 0; gi < kTile; ++gi) {
        mixed[s * kTile + gi] = static_cast<double>(1 + gi % 3) * tiny;
      }
    }
    expect_tile_stats_exact(mixed, random_rows(rng, m, true),
                            "subnormal rows M=" + std::to_string(m));
  }
  const AlignedBlock subnormal(kBlockRows * kTile, 5 * tiny);
  expect_tile_stats_exact(subnormal, rows, "all subnormal");
  // Rows of +-1000 (the dB envelope edge).
  std::uniform_int_distribution<int> sign(0, 1);
  for (std::size_t m = 1; m <= 8; ++m) {
    AlignedBlock edge(kBlockRows * kTile);
    for (double& v : edge) v = sign(rng) == 0 ? 1000.0 : -1000.0;
    expect_tile_stats_exact(edge, random_rows(rng, m, false),
                            "+-1000 dB M=" + std::to_string(m));
  }
}

// --- per-tile surface values -------------------------------------------------

/// tile_w's inputs for one tile, each array one element past an aligned
/// start so no variant can lean on alignment.
struct TileWInputs {
  std::vector<double> ds = std::vector<double>(kTile + 1, 0.0);
  std::vector<double> dr = std::vector<double>(kTile + 1, 0.0);
  std::vector<double> root = std::vector<double>(kTile + 1, 0.0);
  double snr_norm{1.0};
  double rssi_norm{1.0};
};

/// The inputs a walk would hand tile_w for `block`, `rows` and random
/// probes: the tile_dots rows, the tile_stats root norms and the probe
/// norms.
TileWInputs tile_w_inputs(std::mt19937_64& rng, const AlignedBlock& block,
                          const std::vector<std::size_t>& rows) {
  const std::size_t m = rows.size();
  const std::vector<double> ps = random_row(rng, m);
  const std::vector<double> pr = random_row(rng, m);
  TileWInputs in;
  tile_dots(block.data(), rows.data(), ps.data(), pr.data(), m, in.ds.data() + 1,
            in.dr.data() + 1);
  std::vector<double> u(m);
  tile_stats(block.data(), rows.data(), m, in.root.data() + 1, u.data());
  double snr_sq = 0.0;
  double rssi_sq = 0.0;
  for (std::size_t mm = 0; mm < m; ++mm) {
    snr_sq += ps[mm] * ps[mm];
    rssi_sq += pr[mm] * pr[mm];
  }
  in.snr_norm = std::sqrt(snr_sq);
  in.rssi_norm = std::sqrt(rssi_sq);
  return in;
}

/// The scalar reference against the surface definition, then every
/// compiled-in variant and the dispatched entry point against the scalar
/// reference: bit for bit, into deliberately unaligned outputs.
void expect_tile_w_exact(const TileWInputs& in, const std::string& where) {
  const double* ds = in.ds.data() + 1;
  const double* dr = in.dr.data() + 1;
  const double* root = in.root.data() + 1;
  std::vector<double> ref(kTile);
  tile_w_scalar(ds, dr, root, in.snr_norm, in.rssi_norm, ref.data());
  for (std::size_t gi = 0; gi < kTile; ++gi) {
    double w = 0.0;
    if (root[gi] > 0.0) {
      const double x = root[gi];
      const double cs = ds[gi] / (in.snr_norm * x);
      const double cr = dr[gi] / (in.rssi_norm * x);
      w = (cs * cs) * (cr * cr);
    }
    ASSERT_EQ(bits(ref[gi]), bits(w)) << "definition " << where << " lane " << gi;
  }
  const auto check = [&](TileWFn fn, const char* name) {
    std::vector<double> out(kTile + 1, -1.0);
    fn(ds, dr, root, in.snr_norm, in.rssi_norm, out.data() + 1);
    for (std::size_t gi = 0; gi < kTile; ++gi) {
      EXPECT_EQ(bits(out[gi + 1]), bits(ref[gi])) << name << " " << where << " lane " << gi;
    }
  };
#if defined(TALON_HAVE_AVX2_KERNEL)
  if (detected_simd_level() == SimdLevel::kAvx2) check(&tile_w_avx2, "avx2");
#endif
  check(&tile_w, "dispatched");
}

TEST(TileW, AllVariantsMatchTheScalarReferenceRandomized) {
  // M from 1 past the block's rows, distinct and duplicate slots, blocks
  // with scattered exact zeros: the dots and norms of real tiles.
  std::mt19937_64 rng(20261019);
  for (std::size_t m = 1; m <= 40; ++m) {
    for (int trial = 0; trial < 10; ++trial) {
      const AlignedBlock block = random_block(rng);
      expect_tile_w_exact(tile_w_inputs(rng, block, random_rows(rng, m, trial % 2 == 0)),
                          "M=" + std::to_string(m));
    }
  }
}

TEST(TileW, RaggedTailsAndZeroNormPoints) {
  // A ragged tail tile (zero padding past `count` points in every row)
  // with every third point zero in every row: their roots are 0, and so
  // is their W, whatever the dots hold.
  std::mt19937_64 rng(19);
  for (const std::size_t count : {std::size_t{1}, std::size_t{5}, std::size_t{31}}) {
    for (const std::size_t m : {std::size_t{1}, std::size_t{14}, std::size_t{36}}) {
      AlignedBlock block = random_block(rng);
      for (std::size_t s = 0; s < kBlockRows; ++s) {
        for (std::size_t gi = count; gi < kTile; ++gi) block[s * kTile + gi] = 0.0;
        for (std::size_t gi = 0; gi < count; gi += 3) block[s * kTile + gi] = 0.0;
      }
      TileWInputs in = tile_w_inputs(rng, block, random_rows(rng, m, true));
      // Nonzero dots over zero roots: only the zero-root rule gives 0.
      for (std::size_t gi = 0; gi < kTile; gi += 3) {
        in.ds[gi + 1] = 1.5;
        in.dr[gi + 1] = -2.5;
      }
      const std::string where = "count=" + std::to_string(count) + " M=" + std::to_string(m);
      expect_tile_w_exact(in, where);
      std::vector<double> w(kTile, -1.0);
      tile_w(in.ds.data() + 1, in.dr.data() + 1, in.root.data() + 1, in.snr_norm,
             in.rssi_norm, w.data());
      for (std::size_t gi = 0; gi < kTile; ++gi) {
        if (gi >= count || gi % 3 == 0) {
          EXPECT_EQ(bits(w[gi]), bits(0.0)) << where;
        }
      }
    }
  }
}

TEST(TileW, ExtremeMagnitudes) {
  // Subnormal dots and roots, dots and responses at +-1000 dB (the
  // kDbEnvelope edge), the linear envelope's 10^(+-100), and probe norms
  // at both extremes -- where the denominators underflow to 0 or
  // overflow to infinity, so W is 0, infinite or NaN in every variant
  // alike.
  const double tiny = std::numeric_limits<double>::denorm_min();
  const std::vector<double> values{tiny,  7 * tiny, 1e-310, 1e-160, 1e-100, 1e100,
                                   1000.0, -1000.0, 0.5,    -3.0,   0.0};
  const std::vector<double> probe_norms{tiny,   1e-300, 1e-100, 1.0,
                                        1000.0, 1e100,  1e300,
                                        std::numeric_limits<double>::max()};
  std::mt19937_64 rng(23);
  std::uniform_int_distribution<std::size_t> pick(0, values.size() - 1);
  std::uniform_int_distribution<std::size_t> pick_norm(0, probe_norms.size() - 1);
  for (int trial = 0; trial < 200; ++trial) {
    TileWInputs in;
    for (std::size_t gi = 1; gi <= kTile; ++gi) {
      in.ds[gi] = values[pick(rng)];
      in.dr[gi] = values[pick(rng)];
      in.root[gi] = std::abs(values[pick(rng)]);
    }
    in.snr_norm = probe_norms[pick_norm(rng)];
    in.rssi_norm = probe_norms[pick_norm(rng)];
    expect_tile_w_exact(in, "trial " + std::to_string(trial));
  }
  // Real tiles at the dB envelope edge: every response +-1000.
  std::uniform_int_distribution<int> sign(0, 1);
  for (const std::size_t m : {std::size_t{1}, std::size_t{14}, std::size_t{35}}) {
    AlignedBlock block(kBlockRows * kTile);
    for (double& v : block) v = sign(rng) == 0 ? 1000.0 : -1000.0;
    const std::vector<std::size_t> rows = random_rows(rng, m, false);
    TileWInputs in = tile_w_inputs(rng, block, rows);
    expect_tile_w_exact(in, "+-1000 dB M=" + std::to_string(m));
  }
}

// --- hostile sweeps: the walk against the Grid2D reference -------------------

/// Largest surface value at least `exclusion_deg` of azimuth away from the
/// main peak -- the best rival direction hypothesis; 0 when the exclusion
/// zone swallows the whole grid. The full-surface reference for the
/// walk's rival pass.
double runner_up_value(const Grid2D& surface, double peak_azimuth_deg,
                       double exclusion_deg) {
  const AngularGrid& grid = surface.grid();
  double best = 0.0;
  for (std::size_t ia = 0; ia < grid.azimuth.count; ++ia) {
    if (azimuth_distance_deg(grid.azimuth.value(ia), peak_azimuth_deg) <
        exclusion_deg) {
      continue;
    }
    for (std::size_t ie = 0; ie < grid.elevation.count; ++ie) {
      best = std::max(best, surface.at(ia, ie));
    }
  }
  return best;
}

/// Seeded sweeps of every hostile kind: all probes at the -7 dB reporting
/// floor, one probe above the floor, exact ties (uniform readings, so
/// every all-floor grid point ties at the peak), duplicate sector IDs,
/// and readings clamped at the 12 dB ceiling -- plus two two-path sweeps
/// whose peak moves after the running rival has pruned, so a 20 deg
/// exclusion on the synthetic grid forces the walk's unpruned redo, and
/// three three-path sweeps whose peak moves twice, so on the fine grid the
/// rival retaken after a move must count as used by pruning (15, 20 and
/// 30 deg exclusions).
std::vector<std::vector<SectorReading>> hostile_sweeps(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> sector(1, 9);
  std::uniform_int_distribution<std::size_t> count(3, 9);
  std::uniform_real_distribution<double> az(-60.0, 60.0);
  std::uniform_real_distribution<double> el(0.0, 30.0);
  std::uniform_real_distribution<double> level(-7.0, 12.0);
  auto random_ids = [&] {
    std::vector<int> ids(count(rng));
    for (int& id : ids) id = sector(rng);
    return ids;
  };
  auto uniform = [&](double snr, double rssi) {
    std::vector<SectorReading> sweep;
    for (int id : random_ids()) {
      sweep.push_back(SectorReading{.sector_id = id, .snr_db = snr, .rssi_dbm = rssi});
    }
    return sweep;
  };
  std::vector<std::vector<SectorReading>> sweeps;
  for (int round = 0; round < 4; ++round) {
    sweeps.push_back(uniform(-7.0, -7.0));  // all at the floor
    auto one = uniform(-7.0, -7.0);          // one probe above the floor
    one[std::uniform_int_distribution<std::size_t>(0, one.size() - 1)(rng)] =
        SectorReading{.sector_id = sector(rng), .snr_db = level(rng), .rssi_dbm = 4.0};
    sweeps.push_back(std::move(one));
    const double tie = level(rng);  // exact ties
    sweeps.push_back(uniform(tie, tie + 0.25));
    auto dup = ideal_probes(synthetic_table(), random_ids(), {az(rng), el(rng)});
    dup.push_back(dup.front());  // duplicate sector IDs, one with new values
    dup.push_back(SectorReading{.sector_id = dup.front().sector_id,
                                .snr_db = level(rng), .rssi_dbm = level(rng)});
    sweeps.push_back(std::move(dup));
    auto clamped = ideal_probes(synthetic_table(), random_ids(), {az(rng), el(rng)});
    for (SectorReading& r : clamped) {  // the 12 dB report ceiling
      r.snr_db = std::min(12.0, r.snr_db + 6.0);
      r.rssi_dbm = std::min(12.0, r.rssi_dbm + 6.0);
    }
    clamped.front().snr_db = 12.0;
    clamped.front().rssi_dbm = 12.0;
    sweeps.push_back(std::move(clamped));
  }
  sweeps.push_back({{1, 7.6479309934518698, 7.8819461427025557},
                    {1, 6.6123533364792699, 6.3966426680915074},
                    {7, -7.5321914811679136, -7.2406389637120698},
                    {7, -6.1268318164462343, -6.6165248295642876},
                    {5, -6.0189984856275336, -6.5488700656354082}});
  sweeps.push_back({{6, -6.5651773337787631, -6.2524748179618079},
                    {7, -7.7499893151708816, -7.3626979252676827},
                    {6, -5.5877495406302833, -5.8564082480464297},
                    {9, -6.6903268785097101, -7.5141531252332063}});
  sweeps.push_back({{2, -3.3728065212858378, -3.4487559590451577},
                    {1, 5.9472259259823463, 6.0304663148613162},
                    {3, 3.6474803830518603, 3.8705399174262309}});
  sweeps.push_back({{1, -5.9205789711805359, -5.8923773121040544},
                    {2, -5.6260612098052212, -5.7567178560488346},
                    {2, -5.6458335778621995, -5.7879567847043853},
                    {8, 7.9158572802993641, 8.1078186269652637},
                    {3, -5.9542470249700363, -6.1151069863600149}});
  sweeps.push_back({{1, -7.8991333207156984, -7.6701963418312982},
                    {6, -7.5510091524363681, -7.4900564899875093},
                    {3, 3.7316981221707, 3.4455012217894025},
                    {6, -7.8931375412900389, -8.0338835581811132},
                    {3, 3.7825270195598062, 3.6904742837286104},
                    {9, -7.6029151664399839, -7.6827487837722339}});
  return sweeps;
}

/// Peak index, value, rival and CSS confidence of every hostile sweep --
/// walked one at a time (K = 1) and up to sixteen at a time -- equal the
/// Grid2D reference bit for bit, including exclusion radii that leave no
/// rival at all.
void expect_hostile_sweeps_match_surface() {
  const PatternTable table = synthetic_table();
  const AngularGrid fine{make_axis(-60.0, 60.0, 1.5), make_axis(0.0, 30.0, 2.0)};
  const auto sweeps = hostile_sweeps(8086);
  ASSERT_GE(sweeps.size(), 16u);
  for (const CorrelationDomain domain :
       {CorrelationDomain::kLinear, CorrelationDomain::kDb}) {
    for (const AngularGrid& grid : {synthetic_grid(), fine}) {
      const CorrelationEngine engine(table, grid, domain);
      for (const double exclusion : {10.0, 15.0, 20.0, 30.0, 45.0, 180.0, 200.0}) {
        SCOPED_TRACE("exclusion " + std::to_string(exclusion));
        CorrelationWorkspace single_ws;
        CorrelationWorkspace batch_ws;
        for (std::size_t i0 = 0; i0 < sweeps.size(); i0 += 16) {
          const std::vector<std::span<const SectorReading>> views(
              sweeps.begin() + static_cast<std::ptrdiff_t>(i0),
              sweeps.begin() +
                  static_cast<std::ptrdiff_t>(std::min(i0 + 16, sweeps.size())));
          std::vector<ArgmaxResult> batched(views.size());
          engine.combined_argmax_batch(views, batched, batch_ws, exclusion);
          for (std::size_t b = 0; b < views.size(); ++b) {
            const Grid2D surface = engine.combined_surface(views[b]);
            const Grid2D::Peak peak = surface.peak();
            const auto it =
                std::max_element(surface.values().begin(), surface.values().end());
            const auto index = static_cast<std::size_t>(it - surface.values().begin());
            const double rival =
                runner_up_value(surface, peak.direction.azimuth_deg, exclusion);
            const ArgmaxResult single =
                engine.combined_argmax(views[b], single_ws, exclusion);
            for (const ArgmaxResult& r : {single, batched[b]}) {
              EXPECT_EQ(r.index, index) << "sweep " << i0 + b;
              EXPECT_EQ(r.value, peak.value) << "sweep " << i0 + b;
              EXPECT_EQ(r.rival, rival) << "sweep " << i0 + b;
            }
          }
        }
      }
    }
  }

  // The selector's confidence: the peak-to-rival ratio of the reference
  // surface, infinity (or 1 on a zero peak) when no rival exists.
  for (const double exclusion : {10.0, 20.0, 180.0}) {
    CssConfig config;
    config.search_grid = fine;
    config.compute_confidence = true;
    config.confidence_exclusion_deg = exclusion;
    const CompressiveSectorSelector css(table, config);
    CorrelationWorkspace ws;
    for (std::size_t i = 0; i < sweeps.size(); ++i) {
      const CssResult run = css.select(sweeps[i], ws);
      const Grid2D surface = css.assets()->engine().combined_surface(sweeps[i]);
      const Grid2D::Peak peak = surface.peak();
      const double rival =
          runner_up_value(surface, peak.direction.azimuth_deg, exclusion);
      const double no_rival =
          peak.value > 0.0 ? std::numeric_limits<double>::infinity() : 1.0;
      const double expected = rival <= 0.0 ? no_rival : peak.value / rival;
      CorrelationWorkspace single_ws;
      EXPECT_EQ(css.select(sweeps[i], single_ws).confidence, expected) << "sweep " << i;
      EXPECT_EQ(run.confidence, expected) << "sweep " << i;
      EXPECT_EQ(run.correlation_peak, peak.value) << "sweep " << i;
    }
  }
}

TEST(ArgmaxBatch, HostileSweepsMatchTheSurfaceBitForBit) {
  expect_hostile_sweeps_match_surface();
}

// --- runtime dispatch -------------------------------------------------------

/// Pins the scalar fallback for the fixture's lifetime and restores the
/// ambient dispatch afterwards, so ordering against other tests cannot
/// leak the override.
class ForcedScalarDispatch : public ::testing::Test {
 protected:
  void SetUp() override { set_simd_level_override(SimdLevel::kScalar); }
  void TearDown() override { clear_simd_level_override(); }
};

TEST_F(ForcedScalarDispatch, OverrideWinsRegardlessOfHost) {
  EXPECT_EQ(active_simd_level(), SimdLevel::kScalar);
  EXPECT_EQ(tile_dots_dispatch_level(), SimdLevel::kScalar);
}

TEST(SimdDispatch, OverrideClampsToDetectedLevel) {
  // Requesting a level the host lacks must not dispatch to it.
  set_simd_level_override(SimdLevel::kAvx2);
  const SimdLevel level = tile_dots_dispatch_level();
  if (detected_simd_level() != SimdLevel::kAvx2) {
    EXPECT_NE(level, SimdLevel::kAvx2);
  }
  clear_simd_level_override();
}

TEST_F(ForcedScalarDispatch, ArgmaxEqualsSurfaceOnScalarFallback) {
  // The argmax-equals-surface property, re-run with the scalar kernel
  // pinned: correctness must not depend on which variant the host
  // happens to dispatch (the full suite runs under TALON_SIMD=scalar in
  // CI as well).
  ASSERT_EQ(tile_dots_dispatch_level(), SimdLevel::kScalar);
  const CorrelationEngine engine(synthetic_table(), synthetic_grid());
  CorrelationWorkspace ws;
  std::mt19937_64 rng(31337);
  std::uniform_real_distribution<double> az(-60.0, 60.0);
  std::uniform_real_distribution<double> el(0.0, 30.0);
  std::uniform_real_distribution<double> noise(-2.0, 2.0);
  std::uniform_int_distribution<int> sector(1, 9);
  std::uniform_int_distribution<std::size_t> count(2, 9);
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<int> ids(count(rng));
    for (int& id : ids) id = sector(rng);
    auto probes = ideal_probes(synthetic_table(), ids, {az(rng), el(rng)});
    for (SectorReading& r : probes) {
      r.snr_db += noise(rng);
      r.rssi_dbm += noise(rng);
    }
    const Grid2D w = engine.combined_surface(probes);
    const auto it = std::max_element(w.values().begin(), w.values().end());
    const auto fast = engine.combined_argmax(probes, ws);
    EXPECT_EQ(fast.index,
              static_cast<std::size_t>(it - w.values().begin()));
    EXPECT_EQ(fast.value, *it);
  }
}

// --- tile bound soundness ---------------------------------------------------

/// Sweeps for the bound test: the hostile sweeps, noisy ideal probes
/// toward random directions, and sweeps whose readings are all 0 dB but
/// one. In the dB domain the last kind's probe vectors are one-hot, where
/// a tile's bound comes down to its largest share in that row: the tight
/// case, in which a share maximum that misses a point shows.
std::vector<std::vector<SectorReading>> bound_sweeps() {
  std::vector<std::vector<SectorReading>> sweeps = hostile_sweeps(8086);
  std::mt19937_64 rng(777);
  std::uniform_real_distribution<double> az(-60.0, 60.0);
  std::uniform_real_distribution<double> el(0.0, 30.0);
  std::uniform_real_distribution<double> noise(-2.0, 2.0);
  std::uniform_real_distribution<double> loud(1.0, 12.0);
  std::uniform_int_distribution<int> sector(1, 9);
  std::uniform_int_distribution<std::size_t> count(2, 9);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<int> ids(count(rng));
    for (int& id : ids) id = sector(rng);
    auto probes = ideal_probes(synthetic_table(), ids, {az(rng), el(rng)});
    for (SectorReading& r : probes) {
      r.snr_db += noise(rng);
      r.rssi_dbm += noise(rng);
    }
    sweeps.push_back(std::move(probes));
  }
  for (int loud_id = 1; loud_id <= 9; ++loud_id) {
    std::vector<SectorReading> sweep;
    for (int id = 1; id <= 9; ++id) {
      const bool is_loud = id == loud_id;
      sweep.push_back(SectorReading{.sector_id = id,
                                    .snr_db = is_loud ? loud(rng) : 0.0,
                                    .rssi_dbm = is_loud ? loud(rng) : 0.0});
    }
    sweeps.push_back(std::move(sweep));
  }
  return sweeps;
}

TEST(TileBound, DominatesEveryPointOfItsTile) {
  // The property pruning rests on: on real panels, no point of a fine or
  // coarse tile has a surface W above the tile's bound. A bound below its
  // tile's peak could cut the tile holding the argmax, and would show
  // elsewhere only on the sweeps where it does.
  const PatternTable table = synthetic_table();
  const AngularGrid fine{make_axis(-60.0, 60.0, 1.5), make_axis(0.0, 30.0, 2.0)};
  const auto sweeps = bound_sweeps();
  for (const CorrelationDomain domain :
       {CorrelationDomain::kLinear, CorrelationDomain::kDb}) {
    for (const AngularGrid& grid : {synthetic_grid(), fine}) {
      const CorrelationEngine engine(table, grid, domain);
      const ResponseMatrix& matrix = engine.response_matrix();
      const TileMap& tiles = matrix.tiles();
      std::size_t tight = 0;  // fine tiles whose bound meets their peak
      for (std::size_t i = 0; i < sweeps.size(); ++i) {
        SCOPED_TRACE("sweep " + std::to_string(i));
        const std::vector<double> w = engine.combined_surface(sweeps[i]).values();
        const ProbeVectors pv = engine.collect_probes(sweeps[i], true, true);
        const std::size_t m = pv.slots.size();
        double snr_sq = 0.0;
        double rssi_sq = 0.0;
        std::vector<double> abs_ps(m);
        std::vector<double> abs_pr(m);
        for (std::size_t mm = 0; mm < m; ++mm) {
          snr_sq += pv.snr[mm] * pv.snr[mm];
          rssi_sq += pv.rssi[mm] * pv.rssi[mm];
          abs_ps[mm] = std::abs(pv.snr[mm]);
          abs_pr[mm] = std::abs(pv.rssi[mm]);
        }
        const double inv_snr = 1.0 / std::sqrt(snr_sq);
        const double inv_rssi = 1.0 / std::sqrt(rssi_sq);
        const auto pan = matrix.panel(pv.slots);
        std::vector<double> fine_peak(tiles.fine_tiles, 0.0);
        for (std::size_t t = 0; t < tiles.fine_tiles; ++t) {
          for (std::size_t gi = 0; gi < tiles.count(t); ++gi) {
            fine_peak[t] = std::max(fine_peak[t], w[tiles.point[t * kTile + gi]]);
          }
          const double bound = detail::screen_tile_float(
              abs_ps.data(), abs_pr.data(), pan->fine_abs_norm_max.data() + t * m, m,
              inv_snr, inv_rssi);
          EXPECT_GE(bound, fine_peak[t]) << "fine tile " << t;
          if (bound <= fine_peak[t] * (1.0 + 1e-9)) ++tight;
        }
        for (std::size_t c = 0; c < tiles.coarse_tiles; ++c) {
          const double peak =
              *std::max_element(fine_peak.begin() + static_cast<std::ptrdiff_t>(
                                                        tiles.first_fine(c)),
                                fine_peak.begin() + static_cast<std::ptrdiff_t>(
                                                        tiles.last_fine(c)));
          const double bound = detail::screen_tile_float(
              abs_ps.data(), abs_pr.data(), pan->coarse_abs_norm_max.data() + c * m, m,
              inv_snr, inv_rssi);
          EXPECT_GE(bound, peak) << "coarse tile " << c;
        }
      }
      // The one-hot sweeps make the dB-domain bounds tight, so there a
      // share maximum that missed a point would undershoot.
      if (domain == CorrelationDomain::kDb) {
        EXPECT_GT(tight, 0u);
      }
    }
  }
}

// --- panel alignment / ragged tails -----------------------------------------

TEST(PanelAlignment, EveryTileRowHonorsTheAlignmentContract) {
  // Search grids chosen so points % kTilePoints covers sparse tails (the
  // sizes that break lane-count assumptions: 1 short of a tile, inside
  // the first SIMD pass, between passes).
  const std::vector<AngularGrid> grids{
      synthetic_grid(),                                            // 287 = 8*32 + 31
      {make_axis(-60.0, 60.0, 3.0), make_axis(0.0, 0.0, 5.0)},     // 41 = 32 + 9
      {make_axis(-60.0, 60.0, 3.0), make_axis(0.0, 15.0, 5.0)},    // 164 = 5*32 + 4
      {make_axis(-48.0, 48.0, 3.0), make_axis(0.0, 0.0, 5.0)},     // 33 = 32 + 1
  };
  for (const AngularGrid& grid : grids) {
    const CorrelationEngine engine(synthetic_table(), grid);
    const auto probes =
        ideal_probes(synthetic_table(), {2, 3, 5, 8, 9}, {0.0, 10.0});
    const ProbeVectors pv = engine.collect_probes(probes, true, true);
    const auto pan = engine.response_matrix().panel(pv.slots);
    const ResponseMatrix& matrix = engine.response_matrix();
    const TileMap& tiles = matrix.tiles();
    ASSERT_GT(tiles.fine_tiles, 0u);
    // Every row of every tile block is aligned -- the probed rows the
    // panel reads through its offsets among them.
    for (std::size_t t = 0; t < tiles.fine_tiles; ++t) {
      for (std::size_t s = 0; s < matrix.slots(); ++s) {
        const double* row = matrix.tile_block(t) + s * kTile;
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(row) % ResponseMatrix::kValuesAlignment,
                  0u)
            << "tile " << t << " row " << s;
      }
      for (const std::size_t offset : pan->rows) {
        EXPECT_EQ(offset % kTile, 0u);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(matrix.tile_block(t) + offset) %
                      ResponseMatrix::kValuesAlignment,
                  0u);
      }
    }
    // Every tile slot past the tile map's valid points is zero-padded in
    // every row; only the last tile has such slots.
    std::size_t padding = 0;
    for (std::size_t t = 0; t < tiles.fine_tiles; ++t) {
      for (std::size_t gi = tiles.count(t); gi < kTile; ++gi, ++padding) {
        for (std::size_t s = 0; s < matrix.slots(); ++s) {
          EXPECT_EQ(matrix.tile_block(t)[s * kTile + gi], 0.0);
        }
      }
    }
    EXPECT_EQ(padding, tiles.fine_tiles * kTile - matrix.points());
    EXPECT_EQ(padding, (kTile - matrix.points() % kTile) % kTile);
  }
}

TEST(PanelAlignment, RaggedTailGridsKeepArgmaxExact) {
  // End-to-end on the same tail shapes: the argmax (SIMD kernels and
  // tile pruning both in play) must still equal the surface peak bit for
  // bit.
  std::mt19937_64 rng(2468);
  std::uniform_real_distribution<double> noise(-1.5, 1.5);
  for (const AngularGrid& grid :
       {AngularGrid{make_axis(-48.0, 48.0, 3.0), make_axis(0.0, 0.0, 5.0)},
        AngularGrid{make_axis(-60.0, 60.0, 3.0), make_axis(0.0, 15.0, 5.0)}}) {
    const CorrelationEngine engine(synthetic_table(), grid);
    CorrelationWorkspace ws;
    for (int trial = 0; trial < 25; ++trial) {
      auto probes = ideal_probes(synthetic_table(),
                                 {1, 2, 3, 5, 6, 8}, {-10.0 + trial, 5.0});
      for (SectorReading& r : probes) {
        r.snr_db += noise(rng);
        r.rssi_dbm += noise(rng);
      }
      const Grid2D w = engine.combined_surface(probes);
      const auto it = std::max_element(w.values().begin(), w.values().end());
      const auto fast = engine.combined_argmax(probes, ws);
      EXPECT_EQ(fast.index, static_cast<std::size_t>(it - w.values().begin()));
      EXPECT_EQ(fast.value, *it);
    }
  }
}

// --- batched argmax ---------------------------------------------------------

TEST(ArgmaxBatch, BitIdenticalToSingleSweepAcrossGroupings) {
  // Random batches mixing repeated slot sequences (grouped onto one
  // panel) with singletons, duplicates and noise, in both
  // domains: every member's result must equal its own single-sweep
  // argmax bit for bit -- grouping is a speed decision, never a result
  // decision.
  std::mt19937_64 rng(13579);
  std::uniform_real_distribution<double> az(-60.0, 60.0);
  std::uniform_real_distribution<double> el(0.0, 30.0);
  std::uniform_real_distribution<double> noise(-2.0, 2.0);
  std::uniform_int_distribution<int> sector(1, 9);
  std::uniform_int_distribution<std::size_t> count(2, 9);
  std::uniform_int_distribution<int> shape(0, 3);
  const std::vector<std::vector<int>> shared_shapes{
      {1, 3, 5, 7, 9}, {2, 4, 6, 8}, {4, 4, 2}};
  for (const CorrelationDomain domain :
       {CorrelationDomain::kLinear, CorrelationDomain::kDb}) {
    const CorrelationEngine engine(synthetic_table(), synthetic_grid(), domain);
    CorrelationWorkspace batch_ws;
    CorrelationWorkspace single_ws;
    for (int trial = 0; trial < 20; ++trial) {
      std::uniform_int_distribution<std::size_t> batch_size(1, 12);
      const std::size_t k = batch_size(rng);
      std::vector<std::vector<SectorReading>> sweeps(k);
      for (auto& sweep : sweeps) {
        std::vector<int> ids;
        const int s = shape(rng);
        if (s < 3) {
          ids = shared_shapes[static_cast<std::size_t>(s)];
        } else {
          ids.resize(count(rng));
          for (int& id : ids) id = sector(rng);
        }
        sweep = ideal_probes(synthetic_table(), ids, {az(rng), el(rng)});
        for (SectorReading& r : sweep) {
          r.snr_db += noise(rng);
          r.rssi_dbm += noise(rng);
        }
      }
      std::vector<std::span<const SectorReading>> views(sweeps.begin(),
                                                        sweeps.end());
      std::vector<CorrelationEngine::ArgmaxResult> batched(k);
      engine.combined_argmax_batch(views, batched, batch_ws);
      for (std::size_t i = 0; i < k; ++i) {
        const auto single = engine.combined_argmax(sweeps[i], single_ws);
        EXPECT_EQ(batched[i].index, single.index) << "member " << i;
        EXPECT_EQ(batched[i].value, single.value) << "member " << i;
        EXPECT_EQ(batched[i].direction.azimuth_deg,
                  single.direction.azimuth_deg);
        EXPECT_EQ(batched[i].direction.elevation_deg,
                  single.direction.elevation_deg);
      }
      // A fresh workspace agrees.
      CorrelationWorkspace fresh;
      std::vector<CorrelationEngine::ArgmaxResult> cold(k);
      engine.combined_argmax_batch(views, cold, fresh);
      for (std::size_t i = 0; i < k; ++i) {
        EXPECT_EQ(cold[i].index, batched[i].index);
        EXPECT_EQ(cold[i].value, batched[i].value);
      }
    }
  }
}

TEST(ArgmaxBatch, WalkStatsEqualTheSingleSweepWalks) {
  // A batch walks each sweep exactly as combined_argmax walks it: the
  // same tiles screened and evaluated and the same points passed, so one
  // call over interleaved same-subset sweeps counts what the sweeps count
  // one by one in fresh workspaces -- for the peak and with a rival.
  std::mt19937_64 rng(97531);
  std::uniform_real_distribution<double> az(-60.0, 60.0);
  std::uniform_real_distribution<double> el(0.0, 30.0);
  std::uniform_real_distribution<double> noise(-2.0, 2.0);
  const std::vector<std::vector<int>> subsets{{1, 3, 5, 7, 9}, {2, 4, 6, 8}, {1, 2, 5, 8}};
  const CorrelationEngine engine(synthetic_table(), synthetic_grid());
  for (int trial = 0; trial < 12; ++trial) {
    std::vector<std::vector<SectorReading>> sweeps;
    for (std::size_t i = 0; i < 8; ++i) {
      auto sweep = ideal_probes(synthetic_table(), subsets[i % subsets.size()],
                                {az(rng), el(rng)});
      for (SectorReading& r : sweep) {
        r.snr_db += noise(rng);
        r.rssi_dbm += noise(rng);
      }
      sweeps.push_back(std::move(sweep));
    }
    const std::vector<std::span<const SectorReading>> views(sweeps.begin(), sweeps.end());
    for (const std::optional<double> rival : {std::optional<double>{}, std::optional{10.0}}) {
      CorrelationWorkspace batch_ws;
      std::vector<CorrelationEngine::ArgmaxResult> batched(sweeps.size());
      engine.combined_argmax_batch(views, batched, batch_ws, rival);
      WalkStats sum;
      for (const auto& sweep : sweeps) {
        CorrelationWorkspace fresh;
        engine.combined_argmax(sweep, fresh, rival);
        sum += fresh.walk_stats();
      }
      EXPECT_EQ(batch_ws.walk_stats(), sum)
          << "trial " << trial << (rival ? " with a rival" : " peak only");
    }
  }
}

TEST(ArgmaxBatch, SteadyStateStopsGrowing) {
  // K links re-probing their own subsets round after round is THE steady
  // state the dense simulator runs in: each link's workspace must go
  // allocation-quiet, like the single-sweep workspace contract.
  const CorrelationEngine engine(synthetic_table(), synthetic_grid());
  std::mt19937_64 rng(24680);
  std::uniform_real_distribution<double> noise(-1.0, 1.0);
  const std::vector<std::vector<int>> subsets{
      {1, 3, 5, 7}, {1, 3, 5, 7}, {2, 4, 6, 8, 9}, {1, 2, 5, 8}};
  std::vector<CorrelationWorkspace> links(subsets.size());
  auto round = [&] {
    for (std::size_t k = 0; k < subsets.size(); ++k) {
      auto sweep = ideal_probes(synthetic_table(), subsets[k], {5.0, 10.0});
      for (SectorReading& r : sweep) {
        r.snr_db += noise(rng);
        r.rssi_dbm += noise(rng);
      }
      (void)engine.combined_argmax(sweep, links[k]);
    }
  };
  for (int warm = 0; warm < 3; ++warm) round();
  std::vector<std::size_t> settled;
  for (const CorrelationWorkspace& ws : links) settled.push_back(ws.growth_events());
  for (int i = 0; i < 100; ++i) round();
  for (std::size_t k = 0; k < links.size(); ++k) {
    EXPECT_EQ(links[k].growth_events(), settled[k]) << "link " << k;
  }
}

TEST_F(ForcedScalarDispatch, BatchBitIdenticalOnScalarFallback) {
  // Batch-vs-single equality re-checked with the scalar kernel pinned.
  ASSERT_EQ(tile_dots_dispatch_level(), SimdLevel::kScalar);
  const CorrelationEngine engine(synthetic_table(), synthetic_grid());
  CorrelationWorkspace ws;
  std::vector<std::vector<SectorReading>> sweeps;
  for (int i = 0; i < 6; ++i) {
    sweeps.push_back(ideal_probes(synthetic_table(), {1, 2, 5, 8},
                                  {-30.0 + 10.0 * i, 5.0}));
  }
  std::vector<std::span<const SectorReading>> views(sweeps.begin(), sweeps.end());
  std::vector<CorrelationEngine::ArgmaxResult> out(sweeps.size());
  engine.combined_argmax_batch(views, out, ws);
  CorrelationWorkspace single_ws;
  for (std::size_t i = 0; i < sweeps.size(); ++i) {
    const auto single = engine.combined_argmax(sweeps[i], single_ws);
    EXPECT_EQ(out[i].index, single.index);
    EXPECT_EQ(out[i].value, single.value);
  }
}

TEST_F(ForcedScalarDispatch, HostileSweepsMatchTheSurfaceOnScalarFallback) {
  ASSERT_EQ(tile_dots_dispatch_level(), SimdLevel::kScalar);
  expect_hostile_sweeps_match_surface();
}

}  // namespace
}  // namespace talon
