// The dense per-tile kernels: the dot products under every correlation
// pass, the exact Eq. 5 surface W of a tile's points, and the per-tile
// statistics of a subset panel build.
//
// tile_dots() computes, for one tile block of the response matrix
// (ResponseMatrix::tile_block: one kTilePoints-wide row per sector slot)
// and a panel's row offsets, out_s[gi] = sum_m ps[m] * block[rows[m] + gi]
// -- and the RSSI channel out_r in the same pass when pr != nullptr.
// Every point's sum is accumulated in ascending m with a plain multiply
// then add (no FMA, no reassociation), which is the whole bit-identity
// contract: the scalar, AVX2 and NEON variants differ only in how many
// points they carry per register, never in any single point's operation
// sequence, so their results are bit-for-bit equal on every input.
//
// Which variant runs is resolved at runtime from
// common/cpufeatures.hpp's active_simd_level(): the host probe picks the
// fastest kernel compiled into the binary, the TALON_SIMD environment
// variable and set_simd_level_override() force it down (tests pin the
// scalar fallback this way). Resolution is a couple of relaxed atomic
// loads per call -- noise next to the M * kTilePoints multiply-adds the
// call performs.
//
// tile_w() turns a tile's two dot rows into its surface values: for every
// point gi, with x = root[gi] (tile_stats' root norm), cs = dot_s[gi] /
// (snr_norm * x), cr = dot_r[gi] / (rssi_norm * x) and
// w[gi] = (cs * cs) * (cr * cr), or 0 when x <= 0. That is the operation
// sequence of the reference surface, one correctly rounded IEEE operation
// at a time; vdivpd and vmulpd round each lane exactly like their scalar
// forms, and the zero-root mask selects the scalar branch's 0. So every
// variant is bit-identical on every input, NaN included (the mask is
// "not <= 0", the scalar test's negation).
//
// tile_stats() computes, for one tile block and a panel's row offsets,
// all ResponseMatrix::build_panel keeps per fine tile: every point's root
// subset norm and every row's largest normalized share. Norms accumulate
// in ascending m with a plain multiply then add, like tile_dots; the root
// is one correctly rounded sqrt, the reciprocal one divide of it, and the
// maxima are order-free. So every variant is bit-identical here too,
// provided no value is NaN -- ResponseMatrix only admits responses within
// kDbEnvelope, whose squares stay finite.
//
// `block` must honor the ResponseMatrix::kValuesAlignment contract, and
// every rows[m] must be a multiple of kTilePoints (every row 64-byte
// aligned); the vector kernels use aligned loads on it. Rows may repeat
// and come in any order. The out arrays have no alignment requirement.
#pragma once

#include <cstddef>

#include "src/common/cpufeatures.hpp"

namespace talon {

/// Kernel signature shared by every variant. Row m of the tile is
/// block + rows[m]. `pr`/`out_r` may be nullptr together (SNR-only pass).
/// Always writes all kTilePoints outputs; the zero-padded tail of a
/// ragged tile just produces zeros the caller discards.
using TileDotsFn = void (*)(const double* block, const std::size_t* rows,
                            const double* ps, const double* pr,
                            std::size_t m_count, double* out_s, double* out_r);

/// Portable reference kernel (register-blocked, see tile_dots.cpp).
void tile_dots_scalar(const double* block, const std::size_t* rows,
                      const double* ps, const double* pr, std::size_t m_count,
                      double* out_s, double* out_r);

/// Surface signature shared by every variant: w[gi] for all kTilePoints
/// points from the dot rows and the points' root subset norms (see
/// above). Zero roots, the padding of a ragged tile among them, give
/// w = 0. No argument has an alignment requirement.
using TileWFn = void (*)(const double* dot_s, const double* dot_r, const double* root,
                         double snr_norm, double rssi_norm, double* w);

/// Portable reference surface kernel.
void tile_w_scalar(const double* dot_s, const double* dot_r, const double* root,
                   double snr_norm, double rssi_norm, double* w);

/// Per-tile statistics signature shared by every variant. Writes
///   root[gi] = sqrt(sum_m block[rows[m] + gi]^2), the sum in ascending m,
///              for all kTilePoints points (0 in the zero padding of a
///              ragged tile);
///   u[m]     = max over the points with root[gi] > 0 of
///              |block[rows[m] + gi]| * (1 / root[gi]), 0 when none.
using TileStatsFn = void (*)(const double* block, const std::size_t* rows,
                             std::size_t m_count, double* root, double* u);

/// Portable reference statistics kernel.
void tile_stats_scalar(const double* block, const std::size_t* rows, std::size_t m_count,
                       double* root, double* u);

#if defined(TALON_HAVE_AVX2_KERNEL)
/// AVX2 kernel: 4 points per ymm lane, mul+add kept separate (compiled
/// with -mno-fma and -ffp-contract=off so nothing re-fuses them).
void tile_dots_avx2(const double* block, const std::size_t* rows,
                    const double* ps, const double* pr, std::size_t m_count,
                    double* out_s, double* out_r);

/// AVX2 surface: 4 points per ymm lane, the zero-root lanes masked to 0.
void tile_w_avx2(const double* dot_s, const double* dot_r, const double* root,
                 double snr_norm, double rssi_norm, double* w);

/// AVX2 statistics: all kTilePoints norms in flight, vsqrtpd roots and
/// masked vdivpd reciprocals, one vmaxpd tree per row.
void tile_stats_avx2(const double* block, const std::size_t* rows, std::size_t m_count,
                     double* root, double* u);
#endif

#if defined(__aarch64__) || defined(_M_ARM64)
/// NEON kernel: 2 points per q register, vaddq(acc, vmulq(...)).
void tile_dots_neon(const double* block, const std::size_t* rows,
                    const double* ps, const double* pr, std::size_t m_count,
                    double* out_s, double* out_r);
#endif

/// The dispatched kernel: resolves active_simd_level() (falling back to
/// scalar when the requested variant is not compiled into this binary)
/// and runs it. Re-resolves automatically after an override change.
void tile_dots(const double* block, const std::size_t* rows, const double* ps,
               const double* pr, std::size_t m_count, double* out_s, double* out_r);

/// The dispatched surface kernel, resolved like tile_dots(). NEON has no
/// variant of its own: it runs tile_w_scalar.
void tile_w(const double* dot_s, const double* dot_r, const double* root, double snr_norm,
            double rssi_norm, double* w);

/// The dispatched statistics kernel, resolved like tile_dots(). NEON has
/// no variant of its own: it runs tile_stats_scalar.
void tile_stats(const double* block, const std::size_t* rows, std::size_t m_count,
                double* root, double* u);

/// The level the next tile_dots() call will actually run at -- the active
/// level clamped to the kernels present in this binary. Exposed so tests
/// and benches can report/verify the dispatch in effect.
SimdLevel tile_dots_dispatch_level();

}  // namespace talon
