#include "src/core/tile_dots.hpp"

#include <atomic>
#include <cmath>

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

void tile_w_scalar(const double* dot_s, const double* dot_r, const double* root,
                   double snr_norm, double rssi_norm, double* w) {
  for (std::size_t gi = 0; gi < kTile; ++gi) {
    const double x = root[gi];
    if (x <= 0.0) {
      w[gi] = 0.0;
      continue;
    }
    const double cs = dot_s[gi] / (snr_norm * x);
    const double cr = dot_r[gi] / (rssi_norm * x);
    w[gi] = (cs * cs) * (cr * cr);
  }
}

// The norm pass keeps kBlock points in registers like tile_dots_scalar;
// zero-norm points and the padding get a zero reciprocal, so every share
// they contribute is 0 and cannot raise a maximum that starts at 0.
void tile_stats_scalar(const double* block, const std::size_t* rows, std::size_t m_count,
                       double* root, double* u) {
  constexpr std::size_t kBlock = 8;
  double inv_root[kTile];
  for (std::size_t g0 = 0; g0 < kTile; g0 += kBlock) {
    double acc[kBlock] = {};
    for (std::size_t m = 0; m < m_count; ++m) {
      const double* row = block + rows[m] + g0;
      for (std::size_t j = 0; j < kBlock; ++j) acc[j] += row[j] * row[j];
    }
    for (std::size_t j = 0; j < kBlock; ++j) {
      const double x = std::sqrt(acc[j]);
      root[g0 + j] = x;
      inv_root[g0 + j] = x > 0.0 ? 1.0 / x : 0.0;
    }
  }
  for (std::size_t m = 0; m < m_count; ++m) {
    const double* row = block + rows[m];
    double lane_max[kBlock] = {};
    for (std::size_t g0 = 0; g0 < kTile; g0 += kBlock) {
      for (std::size_t j = 0; j < kBlock; ++j) {
        const double share = std::abs(row[g0 + j]) * inv_root[g0 + j];
        lane_max[j] = share > lane_max[j] ? share : lane_max[j];
      }
    }
    double hi = 0.0;
    for (const double v : lane_max) hi = v > hi ? v : hi;
    u[m] = hi;
  }
}

namespace {

/// One kernel of each kind, and the level they run at.
struct Kernels {
  TileDotsFn dots;
  TileWFn w;
  TileStatsFn stats;
  SimdLevel level;
};

constexpr Kernels kScalarKernels{&tile_dots_scalar, &tile_w_scalar, &tile_stats_scalar,
                                 SimdLevel::kScalar};
#if defined(TALON_HAVE_AVX2_KERNEL)
constexpr Kernels kAvx2Kernels{&tile_dots_avx2, &tile_w_avx2, &tile_stats_avx2,
                               SimdLevel::kAvx2};
#endif
#if defined(__aarch64__) || defined(_M_ARM64)
constexpr Kernels kNeonKernels{&tile_dots_neon, &tile_w_scalar, &tile_stats_scalar,
                               SimdLevel::kNeon};
#endif

/// Map the active level to kernels present in this binary; a level whose
/// kernels were not compiled in (e.g. TALON_SIMD=avx2 on a build whose
/// compiler lacked -mavx2) degrades to scalar rather than erroring.
const Kernels* kernels_for(SimdLevel level) {
  switch (level) {
    case SimdLevel::kAvx2:
#if defined(TALON_HAVE_AVX2_KERNEL)
      return &kAvx2Kernels;
#else
      break;
#endif
    case SimdLevel::kNeon:
#if defined(__aarch64__) || defined(_M_ARM64)
      return &kNeonKernels;
#else
      break;
#endif
    case SimdLevel::kScalar:
      break;
  }
  return &kScalarKernels;
}

/// Cached resolution. Both cells are plain caches of pure functions of the
/// active level -- racing writers store the same values, so relaxed order
/// is enough (and keeps the hot-path check to two uncontended loads).
std::atomic<const Kernels*> g_kernels{nullptr};
std::atomic<SimdLevel> g_kernels_level{SimdLevel::kScalar};

const Kernels& resolve() {
  const SimdLevel level = active_simd_level();
  const Kernels* k = g_kernels.load(std::memory_order_relaxed);
  if (k == nullptr || g_kernels_level.load(std::memory_order_relaxed) != level) {
    k = kernels_for(level);
    g_kernels.store(k, std::memory_order_relaxed);
    g_kernels_level.store(level, std::memory_order_relaxed);
  }
  return *k;
}

}  // namespace

void tile_dots(const double* block, const std::size_t* rows, const double* ps,
               const double* pr, std::size_t m_count, double* out_s, double* out_r) {
  resolve().dots(block, rows, ps, pr, m_count, out_s, out_r);
}

void tile_w(const double* dot_s, const double* dot_r, const double* root, double snr_norm,
            double rssi_norm, double* w) {
  resolve().w(dot_s, dot_r, root, snr_norm, rssi_norm, w);
}

void tile_stats(const double* block, const std::size_t* rows, std::size_t m_count,
                double* root, double* u) {
  resolve().stats(block, rows, m_count, root, u);
}

SimdLevel tile_dots_dispatch_level() { return resolve().level; }

}  // namespace talon
