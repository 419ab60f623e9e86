#include "src/core/tile_dots.hpp"

#include <atomic>

#include "src/core/response_matrix.hpp"

namespace talon {

namespace {

constexpr std::size_t kTile = SubsetPanel::kTilePoints;

}  // namespace

// Register-blocked: a full kTile-wide accumulator array would spill out of
// the 16 XMM registers, which costs more than the arithmetic. Each point's
// sum still runs in ascending m -- the blocking only changes which points
// are in flight, never one point's operation order.
void tile_dots_scalar(const double* block, const std::size_t* rows,
                      const double* ps, const double* pr, std::size_t m_count,
                      double* out_s, double* out_r) {
  constexpr std::size_t kBlock = 8;
  static_assert(kTile % kBlock == 0);
  for (std::size_t g0 = 0; g0 < kTile; g0 += kBlock) {
    double as[kBlock] = {};
    double ar[kBlock] = {};
    const double* base = block + g0;
    if (pr != nullptr) {
      for (std::size_t m = 0; m < m_count; ++m) {
        const double pvs = ps[m];
        const double pvr = pr[m];
        const double* row = base + rows[m];
        for (std::size_t j = 0; j < kBlock; ++j) {
          as[j] += pvs * row[j];
          ar[j] += pvr * row[j];
        }
      }
      for (std::size_t j = 0; j < kBlock; ++j) {
        out_s[g0 + j] = as[j];
        out_r[g0 + j] = ar[j];
      }
    } else {
      for (std::size_t m = 0; m < m_count; ++m) {
        const double pvs = ps[m];
        const double* row = base + rows[m];
        for (std::size_t j = 0; j < kBlock; ++j) {
          as[j] += pvs * row[j];
        }
      }
      for (std::size_t j = 0; j < kBlock; ++j) {
        out_s[g0 + j] = as[j];
      }
    }
  }
}

namespace {

/// Map the active level to a kernel present in this binary; a level whose
/// kernel was not compiled in (e.g. TALON_SIMD=avx2 on a build whose
/// compiler lacked -mavx2) degrades to scalar rather than erroring.
TileDotsFn kernel_for(SimdLevel level) {
  switch (level) {
    case SimdLevel::kAvx2:
#if defined(TALON_HAVE_AVX2_KERNEL)
      return &tile_dots_avx2;
#else
      break;
#endif
    case SimdLevel::kNeon:
#if defined(__aarch64__) || defined(_M_ARM64)
      return &tile_dots_neon;
#else
      break;
#endif
    case SimdLevel::kScalar:
      break;
  }
  return &tile_dots_scalar;
}

/// Cached resolution. Both cells are plain caches of pure functions of the
/// active level -- racing writers store the same values, so relaxed order
/// is enough (and keeps the hot-path check to two uncontended loads).
std::atomic<TileDotsFn> g_kernel{nullptr};
std::atomic<SimdLevel> g_kernel_level{SimdLevel::kScalar};

TileDotsFn resolve() {
  const SimdLevel level = active_simd_level();
  TileDotsFn fn = g_kernel.load(std::memory_order_relaxed);
  if (fn == nullptr || g_kernel_level.load(std::memory_order_relaxed) != level) {
    fn = kernel_for(level);
    g_kernel.store(fn, std::memory_order_relaxed);
    g_kernel_level.store(level, std::memory_order_relaxed);
  }
  return fn;
}

}  // namespace

void tile_dots(const double* block, const std::size_t* rows, const double* ps,
               const double* pr, std::size_t m_count, double* out_s, double* out_r) {
  resolve()(block, rows, ps, pr, m_count, out_s, out_r);
}

SimdLevel tile_dots_dispatch_level() {
  const TileDotsFn fn = resolve();
#if defined(TALON_HAVE_AVX2_KERNEL)
  if (fn == &tile_dots_avx2) return SimdLevel::kAvx2;
#endif
#if defined(__aarch64__) || defined(_M_ARM64)
  if (fn == &tile_dots_neon) return SimdLevel::kNeon;
#endif
  return SimdLevel::kScalar;
}

}  // namespace talon
