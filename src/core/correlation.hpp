// The compressive correlation of Eqs. 2/3/5.
//
// W(phi, theta) = < p/||p|| , x(phi,theta)/||x(phi,theta)|| >^2
// where p is the vector of received signal strengths over the probed
// sectors and x(phi,theta) the vector of the same sectors' *measured*
// pattern responses toward (phi,theta). Sectors whose probe frame was
// missed are excluded from both vectors -- probing a subset anyway is what
// makes CSS "naturally compensate missing measurements" (Sec. 5).
//
// CorrelationEngine evaluates the correlation on top of a ResponseMatrix
// (core/response_matrix.hpp): pattern responses resampled onto the search
// grid once and stored tile by tile, with each probe subset's norms and
// tile statistics in a cached panel. Eq. 5 runs as dense dot products over
// contiguous 32-point rows with no per-element gather, either over the
// whole grid (combined_surface, for figures, ablations and diagnostics)
// or -- the selection path -- as one exact branch-and-bound walk per sweep
// (combined_argmax) that prunes grid tiles with a Cauchy-Schwarz upper
// bound and returns the bit-identical peak of the full surface, and
// optionally its best rival, without materializing it. The workspace keeps
// the last sweep's panel, so consecutive sweeps over one probe sequence
// resolve it once.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "src/antenna/pattern.hpp"
#include "src/common/fields.hpp"
#include "src/common/grid.hpp"
#include "src/core/response_matrix.hpp"
#include "src/phy/measurement.hpp"

namespace talon {

/// Which reading feeds the probe vector.
enum class SignalValue : std::uint8_t { kSnr, kRssi };

namespace detail {

/// One tile's pruning data, produced by the screening kernels in
/// correlation.cpp and held per fine tile of the coarse tile the walk is
/// in. Exposed (with the two screening kernels below) so the
/// quantized-screening property tests can compare the bounds directly.
struct TileScreen {
  /// Upper bound on the kernel-FP W anywhere in the tile.
  double bound{0.0};
  /// Upper bound on the reciprocal of every positive-norm point's SNR
  /// denominator snr_norm * ||x(g)||.
  double rs{0.0};
  /// Upper bound on cr^2 anywhere in the tile, inflation included.
  double cr2{0.0};
};

/// Float-statistics screening bound (the reference): dots |p| rows
/// against the tile's abs_norm_max statistics.
TileScreen screen_tile_float(const double* abs_ps, const double* abs_pr,
                             const double* u, double sqrt_min_norm,
                             std::size_t m, double inv_snr_norm,
                             double inv_rssi_norm);

/// int16-sidecar screening bound: identical operation order, but every
/// statistic is the dequantized round-up q[mm] * scale >= u[mm]. By
/// floating-point monotonicity the result dominates screen_tile_float's
/// field for field, so pruning on it never cuts a tile the float screen
/// would keep (see correlation.cpp's soundness note).
TileScreen screen_tile_q(const double* abs_ps, const double* abs_pr,
                         const std::uint16_t* q, double scale,
                         double sqrt_min_norm, std::size_t m,
                         double inv_snr_norm, double inv_rssi_norm);

}  // namespace detail

/// Usable probes of one sweep: matrix slots plus the probe value(s) in
/// the correlation domain, in reading order. `dropped` counts the
/// readings whose sector ID has no matrix slot (unknown to the pattern
/// table) and was therefore excluded from the vectors.
struct ProbeVectors {
  std::vector<int> slots;
  std::vector<double> snr;
  std::vector<double> rssi;
  std::size_t dropped{0};
};

/// The peak of combined_surface without materializing it, as found by
/// the branch-and-bound walk (CorrelationEngine::combined_argmax).
struct ArgmaxResult {
  /// Flat grid index of the peak (ties resolve to the lowest index,
  /// exactly like Grid2D::peak on the full surface).
  std::size_t index{0};
  /// W at the peak -- bit-identical to the surface value there.
  double value{0.0};
  Direction direction{};
  /// Largest W at least the requested exclusion radius of azimuth away
  /// from the peak: the best rival direction hypothesis, bit-identical to
  /// the maximum of the full surface over those points. 0 when no rival
  /// was requested or the exclusion zone covers the whole grid.
  double rival{0.0};
};

namespace detail {

/// One sweep's state in a branch-and-bound walk: probe vectors, norms,
/// the running peak and, in confidence mode, the running rival.
struct WalkMember {
  const double* ps{nullptr};
  const double* pr{nullptr};
  double snr_norm{0.0};
  double rssi_norm{0.0};
  double inv_snr{0.0};
  double inv_rssi{0.0};
  double best{0.0};
  std::size_t best_g{0};
  /// Confidence mode: the best W evaluated outside the exclusion zone of
  /// the running peak's azimuth column (never above the peak), which the
  /// walk prunes against; that column; and the largest rival any pruning
  /// used -- the result is exact when the final rival reaches it.
  double rival{-1.0};
  std::size_t peak_column{0};
  double rival_used{-1.0};
};

}  // namespace detail

/// What the branch-and-bound walk did, summed over every sweep's walk (a
/// confidence-mode redo walks again and counts again). Diagnostics only:
/// the counts never feed back into a result.
struct WalkStats {
  /// Fine tiles whose bound was computed (their coarse tile was in play).
  std::uint64_t fine_screened{0};
  /// Fine tiles whose points were evaluated (their bound was in play).
  std::uint64_t fine_evaluated{0};
  /// Valid points of evaluated tiles (zero-norm points among them score
  /// 0 without a screen).
  std::uint64_t points_screened{0};
  /// Points that passed the per-point screen and paid the exact W.
  std::uint64_t points_passed{0};

  /// The one field list (common/fields.hpp).
  static constexpr auto kFields = std::make_tuple(
      field("fine_screened", &WalkStats::fine_screened),
      field("fine_evaluated", &WalkStats::fine_evaluated),
      field("points_screened", &WalkStats::points_screened),
      field("points_passed", &WalkStats::points_passed));
  friend bool operator==(const WalkStats&, const WalkStats&) = default;
};

/// Caller-owned scratch for the selection hot path (one per LinkSession /
/// replay cell / daemon). Holds the collected probe vectors, the resolved
/// subset panel and the branch-and-bound tile scratch, so that once
/// warmed up -- a few sweeps with the caller's largest probe count --
/// repeated argmax calls perform zero heap allocations. Not
/// thread-safe; give each concurrent caller its own workspace (panels
/// themselves are shared and immutable).
class CorrelationWorkspace {
 public:
  /// Times any internal buffer had to grow (or a new panel had to be
  /// resolved through the matrix cache) since construction. Steady state
  /// on a fixed probe subset holds this constant -- the zero-allocation
  /// tests pin their loop on it.
  std::size_t growth_events() const { return growth_events_; }

  /// Walk counters accumulated since construction.
  const WalkStats& walk_stats() const { return walk_stats_; }

 private:
  friend class CorrelationEngine;

  /// resize() that charges capacity growth to the growth counter.
  template <typename T>
  void ensure_size(std::vector<T>& v, std::size_t n) {
    if (n > v.capacity()) ++growth_events_;
    v.resize(n);
  }

  /// Probe vectors of the current sweep (only ever grown).
  ProbeVectors probes_;
  /// Panel of the last sweep; keyed by its exact slot sequence, so the
  /// steady-state path skips the matrix cache (and its lock) entirely.
  std::shared_ptr<const SubsetPanel> panel_;
  /// Per-coarse-tile bounds of the walking sweep and the best-first
  /// visiting order.
  std::vector<double> coarse_bound_;
  std::vector<std::uint32_t> coarse_order_;
  /// The walking sweep's |probe| row, 2 * M: SNR then RSSI.
  std::vector<double> probe_abs_;
  /// Confidence mode on grids wider than the walk's stack columns: best
  /// evaluated W per azimuth column.
  std::vector<double> column_best_;
  std::size_t growth_events_{0};
  WalkStats walk_stats_;
};

class CorrelationEngine {
 public:
  /// `patterns` must contain every sector that may ever be probed.
  /// `search_grid` is the discrete (phi, theta) grid of Eq. 3.
  CorrelationEngine(const PatternTable& patterns, AngularGrid search_grid,
                    CorrelationDomain domain = CorrelationDomain::kLinear);

  const AngularGrid& search_grid() const { return matrix_.grid(); }
  CorrelationDomain domain() const { return matrix_.domain(); }

  /// The precomputed tile-major response matrix the surfaces run over.
  const ResponseMatrix& response_matrix() const { return matrix_; }

  /// Eq. 2 evaluated on the whole grid for one value type.
  /// Readings of sectors absent from the table are ignored. Requires at
  /// least 2 usable readings.
  Grid2D surface(std::span<const SectorReading> readings, SignalValue value) const;

  /// Eq. 5: element-wise product of the SNR and RSSI surfaces, computed in
  /// one fused grid pass (one panel walk for both dots and the product).
  Grid2D combined_surface(std::span<const SectorReading> readings) const;

  using ArgmaxResult = talon::ArgmaxResult;

  /// Eq. 3 over the Eq. 5 surface for one sweep as an exact
  /// branch-and-bound search -- the repo's one selection kernel.
  ///
  /// Grid tiles are visited best-bound-first and skipped when a rigorous
  /// floating-point upper bound (per-tile response extrema + minimum
  /// subset norm, Cauchy-Schwarz on both correlation factors) cannot beat
  /// the running best; surviving points are evaluated with the exact
  /// combined_surface arithmetic. Index and value are therefore
  /// bit-identical to combined_surface(readings).peak() -- asserted in
  /// debug builds. The panel of the sweep's slot sequence comes from `ws`
  /// when the previous sweep probed the same sequence, and from the
  /// matrix cache otherwise.
  ///
  /// With `rival_exclusion_deg`, the same walk also finds the sweep's
  /// best point at least that far in azimuth from its peak
  /// (ArgmaxResult::rival) -- the peak-to-second-peak confidence without
  /// a full surface: it records every evaluated point's W per azimuth
  /// column and prunes with the same exact bounds against the running
  /// rival instead of the peak. Should the peak move after pruning used
  /// a rival the final one falls short of, the walk is redone without
  /// pruning, so the rival is bit-identical to the full surface's either
  /// way.
  ///
  /// Steady state on a stable probe sequence performs zero heap
  /// allocations; `ws` holds all scratch. The sweep needs >= 2 usable
  /// readings with positive probe norms.
  ArgmaxResult combined_argmax(std::span<const SectorReading> readings,
                               CorrelationWorkspace& ws,
                               std::optional<double> rival_exclusion_deg = {}) const;

  /// combined_argmax for each of K sweeps, writing out[i] for sweeps[i]
  /// (out.size() must equal sweeps.size()). Kept only for perfbench's
  /// replay and trace layers; ROADMAP item 1 retires that caller, and
  /// this function is deleted with it.
  void combined_argmax_batch(std::span<const std::span<const SectorReading>> sweeps,
                             std::span<ArgmaxResult> out, CorrelationWorkspace& ws,
                             std::optional<double> rival_exclusion_deg = {}) const;

  /// Number of readings that map onto table sectors.
  std::size_t usable_probe_count(std::span<const SectorReading> readings) const;

  /// False when the reading cannot enter Eq. 5: its SNR or RSSI is
  /// non-finite, or lies beyond +-1000 dB with a squared value in this
  /// engine's domain (its term of the probe norm) that overflows to
  /// infinity or underflows to zero.
  bool numerically_usable(const SectorReading& reading) const;

  /// Usable probes of one sweep in reading order, with readings of
  /// unknown sectors dropped (and counted).
  ProbeVectors collect_probes(std::span<const SectorReading> readings,
                              bool need_snr, bool need_rssi) const;

 private:
  /// Index into the response matrix for a sector ID, or -1.
  int sector_slot(int sector_id) const { return matrix_.slot(sector_id); }

  /// collect_probes into caller-owned vectors (the zero-allocation path).
  void collect_probes_into(std::span<const SectorReading> readings, bool need_snr,
                           bool need_rssi, ProbeVectors& out) const;

  /// combined_surface's arithmetic over a resolved panel and the probes
  /// it was resolved for.
  Grid2D surface_on_panel(const SubsetPanel& pan, const ProbeVectors& probes) const;

  /// The subset panel for `slots`, reusing ws.panel_ when the sequence
  /// matches (no lock, no allocation) and replacing it otherwise -- after
  /// releasing the old one, so a miss build can reuse its memory.
  const SubsetPanel& resolve_panel(const std::vector<int>& slots,
                                   CorrelationWorkspace& ws) const;

  /// The argmax of one sweep whose probes were resolved to `pan`: its
  /// coarse bounds, the walk (redone unpruned when confidence needs it)
  /// and, in debug builds, the check against the full surface.
  ArgmaxResult argmax_sweep(const SubsetPanel& pan, const ProbeVectors& probes,
                            CorrelationWorkspace& ws,
                            std::optional<double> rival_exclusion_deg) const;

  /// The tile-pyramid traversal of one sweep in ws.coarse_order_, from
  /// the state `mb` to the returned one. kConfidence also records every
  /// evaluated point's W in `columns` (the best per azimuth column) and,
  /// when `speculate`, prunes against the running rival (the best column
  /// more than `zone_half` columns from the running peak's) instead of
  /// the peak. Each instantiation stays out of line: inlined into
  /// argmax_sweep, both would spread the peak walk -- the serving hot
  /// path -- over several times its size.
  template <bool kConfidence>
  [[gnu::noinline]] detail::WalkMember walk(const SubsetPanel& pan, detail::WalkMember mb,
                                            double* columns, CorrelationWorkspace& ws,
                                            std::size_t zone_half, bool speculate) const;

  ResponseMatrix matrix_;
};

}  // namespace talon
