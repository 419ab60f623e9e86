// NEON (ASIMD) variant of tile_dots, aarch64 only. NEON is architecturally
// baseline there, so no special compile flags are needed; the TU is empty
// elsewhere.
//
// Bit-identity mirrors the AVX2 kernel's argument: one grid point per
// 64-bit lane, ascending-m broadcast, and an explicit vmulq_f64 followed
// by vaddq_f64 -- never vfmaq_f64, whose single rounding would diverge
// from the scalar kernel's two.
#include "src/core/tile_dots.hpp"

#if defined(__aarch64__) || defined(_M_ARM64)

#include <arm_neon.h>

#include "src/core/response_matrix.hpp"

namespace talon {

namespace {
constexpr std::size_t kTile = SubsetPanel::kTilePoints;
constexpr std::size_t kBlock = 8;  // points in flight: 4 q-regs per channel
static_assert(kTile % kBlock == 0);
}  // namespace

void tile_dots_neon(const double* block, const std::size_t* rows,
                    const double* ps, const double* pr, std::size_t m_count,
                    double* out_s, double* out_r) {
  for (std::size_t g0 = 0; g0 < kTile; g0 += kBlock) {
    const double* base = block + g0;
    float64x2_t as0 = vdupq_n_f64(0.0);
    float64x2_t as1 = vdupq_n_f64(0.0);
    float64x2_t as2 = vdupq_n_f64(0.0);
    float64x2_t as3 = vdupq_n_f64(0.0);
    if (pr != nullptr) {
      float64x2_t ar0 = vdupq_n_f64(0.0);
      float64x2_t ar1 = vdupq_n_f64(0.0);
      float64x2_t ar2 = vdupq_n_f64(0.0);
      float64x2_t ar3 = vdupq_n_f64(0.0);
      for (std::size_t m = 0; m < m_count; ++m) {
        const double* row = base + rows[m];
        const float64x2_t pvs = vdupq_n_f64(ps[m]);
        const float64x2_t pvr = vdupq_n_f64(pr[m]);
        const float64x2_t r0 = vld1q_f64(row);
        const float64x2_t r1 = vld1q_f64(row + 2);
        const float64x2_t r2 = vld1q_f64(row + 4);
        const float64x2_t r3 = vld1q_f64(row + 6);
        as0 = vaddq_f64(as0, vmulq_f64(pvs, r0));
        as1 = vaddq_f64(as1, vmulq_f64(pvs, r1));
        as2 = vaddq_f64(as2, vmulq_f64(pvs, r2));
        as3 = vaddq_f64(as3, vmulq_f64(pvs, r3));
        ar0 = vaddq_f64(ar0, vmulq_f64(pvr, r0));
        ar1 = vaddq_f64(ar1, vmulq_f64(pvr, r1));
        ar2 = vaddq_f64(ar2, vmulq_f64(pvr, r2));
        ar3 = vaddq_f64(ar3, vmulq_f64(pvr, r3));
      }
      vst1q_f64(out_r + g0, ar0);
      vst1q_f64(out_r + g0 + 2, ar1);
      vst1q_f64(out_r + g0 + 4, ar2);
      vst1q_f64(out_r + g0 + 6, ar3);
    } else {
      for (std::size_t m = 0; m < m_count; ++m) {
        const double* row = base + rows[m];
        const float64x2_t pvs = vdupq_n_f64(ps[m]);
        as0 = vaddq_f64(as0, vmulq_f64(pvs, vld1q_f64(row)));
        as1 = vaddq_f64(as1, vmulq_f64(pvs, vld1q_f64(row + 2)));
        as2 = vaddq_f64(as2, vmulq_f64(pvs, vld1q_f64(row + 4)));
        as3 = vaddq_f64(as3, vmulq_f64(pvs, vld1q_f64(row + 6)));
      }
    }
    vst1q_f64(out_s + g0, as0);
    vst1q_f64(out_s + g0 + 2, as1);
    vst1q_f64(out_s + g0 + 4, as2);
    vst1q_f64(out_s + g0 + 6, as3);
  }
}

}  // namespace talon

#endif  // __aarch64__ || _M_ARM64
