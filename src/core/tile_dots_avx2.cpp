// AVX2 variants of tile_dots, tile_w and tile_stats. Compiled with -mavx2
// -mno-fma (plus the project-wide -ffp-contract=off) in its own TU so the
// rest of the build stays baseline-ISA; only the runtime dispatcher calls
// in here, and only after the host probe confirmed AVX2.
//
// Bit-identity: each ymm lane carries one grid point's accumulator, the m
// loop broadcasts ps[m]/pr[m] and performs a distinct _mm256_mul_pd then
// _mm256_add_pd -- the same multiply-round-add-round sequence, in the same
// ascending-m order, as the scalar kernel applies to that point. Lane
// arithmetic under AVX2 is IEEE-754 binary64, so every lane matches the
// scalar result bit for bit (the randomized equality test pins this
// across tail lengths and duplicate slots). tile_w and tile_stats carry
// their own notes below.
#include "src/core/tile_dots.hpp"

#if defined(TALON_HAVE_AVX2_KERNEL)

#include <immintrin.h>

#include "src/core/response_matrix.hpp"

namespace talon {

namespace {
constexpr std::size_t kTile = SubsetPanel::kTilePoints;
constexpr std::size_t kHalf = 16;  // points in flight per pass
static_assert(kTile % kHalf == 0);
}  // namespace

void tile_dots_avx2(const double* block, const std::size_t* rows,
                    const double* ps, const double* pr, std::size_t m_count,
                    double* out_s, double* out_r) {
  // 16 points per pass: 4 ymm accumulators per channel leaves enough
  // registers for the row loads and broadcasts even in the dual-channel
  // case (12 of 16 ymm live).
  for (std::size_t g0 = 0; g0 < kTile; g0 += kHalf) {
    const double* base = block + g0;
    __m256d as0 = _mm256_setzero_pd();
    __m256d as1 = _mm256_setzero_pd();
    __m256d as2 = _mm256_setzero_pd();
    __m256d as3 = _mm256_setzero_pd();
    if (pr != nullptr) {
      __m256d ar0 = _mm256_setzero_pd();
      __m256d ar1 = _mm256_setzero_pd();
      __m256d ar2 = _mm256_setzero_pd();
      __m256d ar3 = _mm256_setzero_pd();
      for (std::size_t m = 0; m < m_count; ++m) {
        // Rows are 64-byte aligned (ResponseMatrix::kValuesAlignment) and
        // g0 offsets by a multiple of 16 points, so every load here is
        // 32-byte aligned.
        const double* row = base + rows[m];
        const __m256d pvs = _mm256_set1_pd(ps[m]);
        const __m256d pvr = _mm256_set1_pd(pr[m]);
        const __m256d r0 = _mm256_load_pd(row);
        const __m256d r1 = _mm256_load_pd(row + 4);
        const __m256d r2 = _mm256_load_pd(row + 8);
        const __m256d r3 = _mm256_load_pd(row + 12);
        as0 = _mm256_add_pd(as0, _mm256_mul_pd(pvs, r0));
        as1 = _mm256_add_pd(as1, _mm256_mul_pd(pvs, r1));
        as2 = _mm256_add_pd(as2, _mm256_mul_pd(pvs, r2));
        as3 = _mm256_add_pd(as3, _mm256_mul_pd(pvs, r3));
        ar0 = _mm256_add_pd(ar0, _mm256_mul_pd(pvr, r0));
        ar1 = _mm256_add_pd(ar1, _mm256_mul_pd(pvr, r1));
        ar2 = _mm256_add_pd(ar2, _mm256_mul_pd(pvr, r2));
        ar3 = _mm256_add_pd(ar3, _mm256_mul_pd(pvr, r3));
      }
      _mm256_storeu_pd(out_r + g0, ar0);
      _mm256_storeu_pd(out_r + g0 + 4, ar1);
      _mm256_storeu_pd(out_r + g0 + 8, ar2);
      _mm256_storeu_pd(out_r + g0 + 12, ar3);
    } else {
      for (std::size_t m = 0; m < m_count; ++m) {
        const double* row = base + rows[m];
        const __m256d pvs = _mm256_set1_pd(ps[m]);
        as0 = _mm256_add_pd(as0, _mm256_mul_pd(pvs, _mm256_load_pd(row)));
        as1 = _mm256_add_pd(as1, _mm256_mul_pd(pvs, _mm256_load_pd(row + 4)));
        as2 = _mm256_add_pd(as2, _mm256_mul_pd(pvs, _mm256_load_pd(row + 8)));
        as3 = _mm256_add_pd(as3, _mm256_mul_pd(pvs, _mm256_load_pd(row + 12)));
      }
    }
    // The out arrays are ordinary stack scratch in the callers; no
    // alignment promise, so store unaligned.
    _mm256_storeu_pd(out_s + g0, as0);
    _mm256_storeu_pd(out_s + g0 + 4, as1);
    _mm256_storeu_pd(out_s + g0 + 8, as2);
    _mm256_storeu_pd(out_s + g0 + 12, as3);
  }
}

// Bit-identity: per lane, the scalar kernel's multiply, divide and
// multiply sequence, each correctly rounded alike; the mask stands in for
// its zero-root branch.
void tile_w_avx2(const double* dot_s, const double* dot_r, const double* root,
                 double snr_norm, double rssi_norm, double* w) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d sn = _mm256_set1_pd(snr_norm);
  const __m256d rn = _mm256_set1_pd(rssi_norm);
  for (std::size_t g = 0; g < kTile; g += 4) {
    const __m256d x = _mm256_loadu_pd(root + g);
    const __m256d cs = _mm256_div_pd(_mm256_loadu_pd(dot_s + g), _mm256_mul_pd(sn, x));
    const __m256d cr = _mm256_div_pd(_mm256_loadu_pd(dot_r + g), _mm256_mul_pd(rn, x));
    const __m256d v = _mm256_mul_pd(_mm256_mul_pd(cs, cs), _mm256_mul_pd(cr, cr));
    // "not x <= 0" rather than "x > 0": a NaN root computes, as in the
    // scalar branch.
    const __m256d computed = _mm256_cmp_pd(x, zero, _CMP_NLE_UQ);
    _mm256_storeu_pd(w + g, _mm256_and_pd(computed, v));
  }
}

namespace {

/// Largest lane of v; order-free on non-NaN lanes.
double hmax(__m256d v) {
  const __m128d half = _mm_max_pd(_mm256_castpd256_pd128(v), _mm256_extractf128_pd(v, 1));
  return _mm_cvtsd_f64(_mm_max_sd(half, _mm_unpackhi_pd(half, half)));
}

constexpr std::size_t kRegs = kTile / 4;  // ymm registers per tile row

}  // namespace

// Bit-identity: each lane's norm is the scalar kernel's ascending-m
// mul-then-add chain; vsqrtpd and vdivpd round each lane exactly like
// sqrtsd and divsd; the and-mask gives the zero reciprocal the scalar
// kernel selects, and max over non-NaN lanes does not depend on order.
void tile_stats_avx2(const double* block, const std::size_t* rows, std::size_t m_count,
                     double* root, double* u) {
  // One pass over the rows with all kTile points in flight: kRegs
  // independent add chains instead of kRegs / 2 passes over the rows.
  __m256d acc[kRegs];
  for (__m256d& a : acc) a = _mm256_setzero_pd();
  for (std::size_t m = 0; m < m_count; ++m) {
    const double* row = block + rows[m];
    for (std::size_t k = 0; k < kRegs; ++k) {
      const __m256d x = _mm256_load_pd(row + 4 * k);
      acc[k] = _mm256_add_pd(acc[k], _mm256_mul_pd(x, x));
    }
  }

  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  __m256d inv[kRegs];
  for (std::size_t k = 0; k < kRegs; ++k) {
    const __m256d x = _mm256_sqrt_pd(acc[k]);
    _mm256_storeu_pd(root + 4 * k, x);
    inv[k] = _mm256_and_pd(_mm256_cmp_pd(x, zero, _CMP_GT_OQ), _mm256_div_pd(one, x));
  }

  const __m256d magnitude = _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffff));
  for (std::size_t m = 0; m < m_count; ++m) {
    const double* row = block + rows[m];
    __m256d share[kRegs];
    for (std::size_t k = 0; k < kRegs; ++k) {
      const __m256d x = _mm256_load_pd(row + 4 * k);
      share[k] = _mm256_mul_pd(_mm256_and_pd(magnitude, x), inv[k]);
    }
    for (std::size_t width = kRegs / 2; width > 0; width /= 2) {
      for (std::size_t k = 0; k < width; ++k) {
        share[k] = _mm256_max_pd(share[k], share[k + width]);
      }
    }
    // Every share is >= +0, so the maximum already includes the scalar
    // kernel's starting 0.
    u[m] = hmax(share[0]);
  }
}

}  // namespace talon

#endif  // TALON_HAVE_AVX2_KERNEL
