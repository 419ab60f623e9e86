#include "src/core/correlation.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/common/angles.hpp"
#include "src/common/error.hpp"
#include "src/common/units.hpp"
#include "src/core/tile_dots.hpp"

namespace talon {

namespace {

constexpr std::size_t kTile = SubsetPanel::kTilePoints;

double to_domain(double db_value, CorrelationDomain domain) {
  return domain == CorrelationDomain::kLinear ? db_to_linear(db_value) : db_value;
}

/// Outward slack applied to every pruning bound so it rigorously
/// dominates the kernel's finite-precision result without having to
/// mirror its operation order. The bound's real value already dominates
/// the real W everywhere in a tile (Cauchy-Schwarz on the normalized
/// dictionary columns, no cancellation: every accumulated term is
/// non-negative); kernel and bound then each differ from their real
/// values by a relative error below ~(6M + 40) machine epsilons -- under
/// 1e-12 even at M in the thousands -- so inflating by 1e-10 leaves the
/// domination intact with orders of magnitude to spare. The absolute
/// slack covers the one regime where relative-error reasoning fails,
/// results underflowing toward subnormals, where every quantity involved
/// is below it anyway. Skipping is therefore exact: a pruned tile
/// provably cannot contain the argmax (debug builds assert this against
/// the full surface).
constexpr double kBoundInflate = 1.0 + 1e-10;
constexpr double kBoundAbsSlack = 1e-290;

}  // namespace

namespace detail {

/// Bound one tile from its per-slot normalized-response maxima `u`
/// (|x_m(g)| / ||x(g)|| maximized over the tile, see SubsetPanel):
/// |cs(g)| = |<p, x(g)/||x(g)||>| / p_norm <= dot(|p|, u) / p_norm for
/// every g in the tile, and likewise for cr. Callers pass the probe
/// magnitudes |p| precomputed.
double screen_tile_float(const double* abs_ps, const double* abs_pr, const double* u,
                         std::size_t m, double inv_snr_norm, double inv_rssi_norm) {
  double as = 0.0;
  double ar = 0.0;
  for (std::size_t mm = 0; mm < m; ++mm) {
    const double um = u[mm];
    as += abs_ps[mm] * um;
    ar += abs_pr[mm] * um;
  }
  const double cs_ub = as * inv_snr_norm;
  const double cr_ub = ar * inv_rssi_norm;
  return (cs_ub * cs_ub) * ((cr_ub * cr_ub) * kBoundInflate) + kBoundAbsSlack;
}

}  // namespace detail

CorrelationEngine::CorrelationEngine(const PatternTable& patterns,
                                     AngularGrid search_grid,
                                     CorrelationDomain domain)
    : matrix_(patterns, search_grid, domain) {}

std::size_t CorrelationEngine::usable_probe_count(
    std::span<const SectorReading> readings) const {
  std::size_t n = 0;
  for (const SectorReading& r : readings) {
    if (sector_slot(r.sector_id) >= 0) ++n;
  }
  return n;
}

bool CorrelationEngine::numerically_usable(const SectorReading& reading) const {
  const auto usable = [&](double db) {
    // Within kDbEnvelope the square is finite in both domains and
    // positive in the linear one; only the rare rest pays for the
    // conversion.
    if (std::abs(db) <= kDbEnvelope) return true;
    const double v = to_domain(db, matrix_.domain());
    const double term = v * v;
    return std::isfinite(term) && term > 0.0;
  };
  return usable(reading.snr_db) && usable(reading.rssi_dbm);
}

void CorrelationEngine::collect_probes_into(std::span<const SectorReading> readings,
                                            bool need_snr, bool need_rssi,
                                            ProbeVectors& out) const {
  out.slots.clear();
  out.snr.clear();
  out.rssi.clear();
  out.dropped = 0;
  out.slots.reserve(readings.size());
  if (need_snr) out.snr.reserve(readings.size());
  if (need_rssi) out.rssi.reserve(readings.size());
  for (const SectorReading& r : readings) {
    const int slot = sector_slot(r.sector_id);
    if (slot < 0) {
      ++out.dropped;
      continue;
    }
    out.slots.push_back(slot);
    if (need_snr) out.snr.push_back(to_domain(r.snr_db, matrix_.domain()));
    if (need_rssi) out.rssi.push_back(to_domain(r.rssi_dbm, matrix_.domain()));
  }
}

ProbeVectors CorrelationEngine::collect_probes(
    std::span<const SectorReading> readings, bool need_snr, bool need_rssi) const {
  ProbeVectors out;
  collect_probes_into(readings, need_snr, need_rssi, out);
  return out;
}

Grid2D CorrelationEngine::surface(std::span<const SectorReading> readings,
                                  SignalValue value) const {
  const bool use_snr = value == SignalValue::kSnr;
  const ProbeVectors probes = collect_probes(readings, use_snr, !use_snr);
  const std::vector<double>& p = use_snr ? probes.snr : probes.rssi;
  TALON_EXPECTS(p.size() >= 2);

  double p_norm_sq = 0.0;
  for (double v : p) p_norm_sq += v * v;
  TALON_EXPECTS(p_norm_sq > 0.0);
  const double p_norm = std::sqrt(p_norm_sq);

  const std::shared_ptr<const SubsetPanel> panel = matrix_.panel(probes.slots);
  const SubsetPanel& pan = *panel;
  const std::size_t m_count = pan.m();

  const TileMap& tiles = matrix_.tiles();
  Grid2D out(matrix_.grid());
  std::vector<double>& w = out.values();
  double dot[kTile];
  for (std::size_t t = 0; t < tiles.fine_tiles; ++t) {
    const std::uint32_t* tile_points = tiles.point.data() + t * kTile;
    const std::size_t count = tiles.count(t);
    const double* root = pan.root_norms.data() + t * kTile;
    tile_dots(matrix_.tile_block(t), pan.rows.data(), p.data(), nullptr, m_count, dot,
              nullptr);
    for (std::size_t gi = 0; gi < count; ++gi) {
      const std::size_t g = tile_points[gi];
      if (root[gi] <= 0.0) {
        w[g] = 0.0;
        continue;
      }
      const double c = dot[gi] / (p_norm * root[gi]);
      w[g] = c * c;
    }
  }
  return out;
}

Grid2D CorrelationEngine::combined_surface(
    std::span<const SectorReading> readings) const {
  const ProbeVectors probes = collect_probes(readings, true, true);
  TALON_EXPECTS(probes.slots.size() >= 2);
  return surface_on_panel(*matrix_.panel(probes.slots), probes);
}

Grid2D CorrelationEngine::surface_on_panel(const SubsetPanel& pan,
                                           const ProbeVectors& probes) const {
  // Fused Eq. 5: one panel walk computes the SNR dot, the RSSI dot and
  // the surface product. The pattern vector x (and so its norm) is shared
  // by both channels; only the probe vector differs.
  double snr_norm_sq = 0.0;
  for (double v : probes.snr) snr_norm_sq += v * v;
  TALON_EXPECTS(snr_norm_sq > 0.0);
  const double snr_norm = std::sqrt(snr_norm_sq);

  double rssi_norm_sq = 0.0;
  for (double v : probes.rssi) rssi_norm_sq += v * v;
  TALON_EXPECTS(rssi_norm_sq > 0.0);
  const double rssi_norm = std::sqrt(rssi_norm_sq);

  Grid2D out(matrix_.grid());
  std::vector<double>& w = out.values();
  const std::size_t m_count = pan.m();

  const TileMap& tiles = matrix_.tiles();
  double dot_snr[kTile];
  double dot_rssi[kTile];
  double tile_w_values[kTile];
  for (std::size_t t = 0; t < tiles.fine_tiles; ++t) {
    const std::uint32_t* tile_points = tiles.point.data() + t * kTile;
    const std::size_t count = tiles.count(t);
    tile_dots(matrix_.tile_block(t), pan.rows.data(), probes.snr.data(),
              probes.rssi.data(), m_count, dot_snr, dot_rssi);
    tile_w(dot_snr, dot_rssi, pan.root_norms.data() + t * kTile, snr_norm, rssi_norm,
           tile_w_values);
    for (std::size_t gi = 0; gi < count; ++gi) w[tile_points[gi]] = tile_w_values[gi];
  }
  return out;
}

const SubsetPanel& CorrelationEngine::resolve_panel(const std::vector<int>& slots,
                                                     CorrelationWorkspace& ws) const {
  if (!ws.panel_ || ws.panel_->slots != slots) {
    ws.panel_.reset();
    ws.panel_ = matrix_.panel(slots);
    ++ws.growth_events_;  // subset switch: cold path by definition
  }
  return *ws.panel_;
}

CorrelationEngine::ArgmaxResult CorrelationEngine::combined_argmax(
    std::span<const SectorReading> readings, CorrelationWorkspace& ws,
    std::optional<double> rival_exclusion_deg) const {
  ProbeVectors& p = ws.probes_;
  const std::size_t caps_before = p.slots.capacity() + p.snr.capacity() + p.rssi.capacity();
  collect_probes_into(readings, true, true, p);
  if (p.slots.capacity() + p.snr.capacity() + p.rssi.capacity() != caps_before) {
    ++ws.growth_events_;
  }
  TALON_EXPECTS(p.slots.size() >= 2);
  return argmax_sweep(resolve_panel(p.slots, ws), p, ws, rival_exclusion_deg);
}

void CorrelationEngine::combined_argmax_batch(
    std::span<const std::span<const SectorReading>> sweeps,
    std::span<ArgmaxResult> out, CorrelationWorkspace& ws,
    std::optional<double> rival_exclusion_deg) const {
  TALON_EXPECTS(out.size() == sweeps.size());
  for (std::size_t i = 0; i < sweeps.size(); ++i) {
    out[i] = combined_argmax(sweeps[i], ws, rival_exclusion_deg);
  }
}

ArgmaxResult CorrelationEngine::argmax_sweep(const SubsetPanel& pan,
                                             const ProbeVectors& probes,
                                             CorrelationWorkspace& ws,
                                             std::optional<double> rival_exclusion_deg) const {
  const std::size_t m_count = pan.m();
  const std::size_t n_az = matrix_.grid().azimuth.count;

  // Norms and probe magnitudes, computed once per sweep instead of per
  // tile.
  detail::WalkMember mb;
  double snr_norm_sq = 0.0;
  for (double v : probes.snr) snr_norm_sq += v * v;
  TALON_EXPECTS(snr_norm_sq > 0.0);
  double rssi_norm_sq = 0.0;
  for (double v : probes.rssi) rssi_norm_sq += v * v;
  TALON_EXPECTS(rssi_norm_sq > 0.0);
  mb.snr_norm = std::sqrt(snr_norm_sq);
  mb.rssi_norm = std::sqrt(rssi_norm_sq);
  mb.inv_snr = 1.0 / mb.snr_norm;
  mb.inv_rssi = 1.0 / mb.rssi_norm;
  mb.ps = probes.snr.data();
  mb.pr = probes.rssi.data();
  ws.ensure_size(ws.probe_abs_, 2 * m_count);
  double* const abs_row = ws.probe_abs_.data();
  for (std::size_t m = 0; m < m_count; ++m) {
    abs_row[m] = std::abs(probes.snr[m]);
    abs_row[m_count + m] = std::abs(probes.rssi[m]);
  }

  // Level 1: every coarse tile bounded and ordered best-bound-first, so
  // the running best is (almost always) the true peak after the first
  // tile and everything else prunes.
  const std::size_t nc = matrix_.tiles().coarse_tiles;
  ws.ensure_size(ws.coarse_bound_, nc);
  ws.ensure_size(ws.coarse_order_, nc);
  for (std::size_t c = 0; c < nc; ++c) {
    ws.coarse_bound_[c] = detail::screen_tile_float(
        abs_row, abs_row + m_count, pan.coarse_abs_norm_max.data() + c * m_count, m_count,
        mb.inv_snr, mb.inv_rssi);
    ws.coarse_order_[c] = static_cast<std::uint32_t>(c);
  }
  std::sort(ws.coarse_order_.begin(), ws.coarse_order_.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (ws.coarse_bound_[a] != ws.coarse_bound_[b]) {
                return ws.coarse_bound_[a] > ws.coarse_bound_[b];
              }
              return a < b;
            });

  // Confidence mode records every evaluated W per azimuth column and
  // prunes against the running rival instead of the peak. Every point it
  // skips is below the largest rival pruning used, so when the final
  // rival reaches that, the column maxima outside the peak's zone hold it
  // exactly; otherwise (the peak moved after pruning) the walk is redone
  // without pruning. The running rival counts every column within
  // zone_half indices of the running peak as excluded -- a superset of
  // the true zone unless the axis wraps far enough round for the seam to
  // matter, in which case there is no pruning at all.
  const bool confidence = rival_exclusion_deg.has_value();
  const double exclusion = rival_exclusion_deg.value_or(0.0);
  const Axis& azimuth = matrix_.grid().azimuth;
  const double step = std::abs(azimuth.step);
  const bool seam_free = 360.0 - step * static_cast<double>(n_az - 1) >= exclusion;
  const std::size_t zone_half =
      step > 0.0 ? static_cast<std::size_t>(std::ceil(exclusion / step)) : n_az;
  // The per-column maxima live on the stack (grids of up to kStackColumns
  // azimuth columns), so confidence mode does not grow every link's
  // workspace.
  constexpr std::size_t kStackColumns = 256;
  double stack_columns[kStackColumns];
  double* columns = stack_columns;
  if (confidence && n_az > kStackColumns) {
    ws.ensure_size(ws.column_best_, n_az);
    columns = ws.column_best_.data();
  }
  ArgmaxResult out;
  for (const bool speculate : {confidence && seam_free, false}) {
    mb.best = -1.0;  // below any W: the first visited tile always evaluates
    mb.best_g = 0;
    mb.rival = -1.0;
    mb.peak_column = 0;
    mb.rival_used = -1.0;
    if (confidence) {
      std::fill(columns, columns + n_az, -1.0);
      mb = walk<true>(pan, mb, columns, ws, zone_half, speculate);
    } else {
      mb = walk<false>(pan, mb, columns, ws, zone_half, speculate);
    }
    out = ArgmaxResult{mb.best_g, mb.best, matrix_.directions()[mb.best_g]};
    if (!confidence) break;
    for (std::size_t ia = 0; ia < n_az; ++ia) {
      if (columns[ia] > out.rival &&
          azimuth_distance_deg(azimuth.value(ia), out.direction.azimuth_deg) >= exclusion) {
        out.rival = columns[ia];
      }
    }
    if (mb.rival_used <= out.rival) break;
  }

#ifndef NDEBUG
  // The whole point of the bound algebra is that pruning changes
  // nothing; verify every walk against the reference
  // surface when asserts are on. The reference rides the walk's own
  // panel and probes, so the check leaves the panel cache's counters as a
  // release build leaves them.
  const Grid2D reference = surface_on_panel(pan, probes);
  const std::vector<double>& rv = reference.values();
  const auto it = std::max_element(rv.begin(), rv.end());
  assert(static_cast<std::size_t>(it - rv.begin()) == out.index);
  assert(*it == out.value);
  if (rival_exclusion_deg) {
    const AngularGrid& grid = matrix_.grid();
    double rival = 0.0;
    for (std::size_t ia = 0; ia < grid.azimuth.count; ++ia) {
      if (azimuth_distance_deg(grid.azimuth.value(ia), out.direction.azimuth_deg) <
          *rival_exclusion_deg) {
        continue;
      }
      for (std::size_t ie = 0; ie < grid.elevation.count; ++ie) {
        rival = std::max(rival, reference.at(ia, ie));
      }
    }
    assert(rival == out.rival);
  }
#endif
  return out;
}

template <bool kConfidence>
detail::WalkMember CorrelationEngine::walk(const SubsetPanel& pan, detail::WalkMember mb,
                                           double* columns, CorrelationWorkspace& ws,
                                           std::size_t zone_half, bool speculate) const {
  // The skip rules below are exact, not heuristic: a tile is skipped only
  // when its bound proves it cannot beat the best -- including the
  // lowest-index tie rule Grid2D::peak applies -- or, in confidence mode,
  // the running rival (which is never above the peak). Every point of a
  // tile that is not skipped gets its exact W from the dense epilogue
  // (tile_dots, then tile_w: the reference surface's arithmetic), so the
  // peak matches the full surface bit for bit. The state is a local copy
  // the compiler can keep in registers.
  const std::size_t m_count = pan.m();
  const std::size_t n_az = matrix_.grid().azimuth.count;
  const TileMap& tiles = matrix_.tiles();
  const double* const abs_row = ws.probe_abs_.data();
  // Is a tile bounded by `bound` whose smallest flat grid index is g_min
  // still in play? The peak rule, or the running-rival rule in confidence
  // mode.
  auto in_play = [&mb](double bound, std::size_t g_min) {
    if constexpr (kConfidence) {
      return bound >= mb.rival;
    } else {
      return bound > mb.best || (bound == mb.best && g_min <= mb.best_g);
    }
  };
  auto threshold = [&mb] { return kConfidence ? mb.rival : mb.best; };
  // Confidence mode: is column ia outside the running peak's zone?
  [[maybe_unused]] auto outside = [&mb, zone_half](std::size_t ia) {
    return ia + zone_half < mb.peak_column || ia > mb.peak_column + zone_half;
  };
  double bounds[SubsetPanel::kFinePerCoarse];
  double dsg[kTile];
  double drg[kTile];
  double w[kTile];

  for (const std::uint32_t c : ws.coarse_order_) {
    // Coarse tiles come best-bound-first, so once one drops below the
    // threshold no later tile can help.
    if (ws.coarse_bound_[c] < threshold()) break;
    if (!in_play(ws.coarse_bound_[c], tiles.coarse_min[c])) continue;
    const std::size_t t0 = tiles.first_fine(c);
    const std::size_t nf = tiles.last_fine(c) - t0;

    // Level 2: fine screens, visited best-bound-first.
    std::size_t order[SubsetPanel::kFinePerCoarse];
    for (std::size_t k = 0; k < nf; ++k) {
      const std::size_t t = t0 + k;
      ++ws.walk_stats_.fine_screened;
      bounds[k] = detail::screen_tile_float(abs_row, abs_row + m_count,
                                            pan.fine_abs_norm_max.data() + t * m_count,
                                            m_count, mb.inv_snr, mb.inv_rssi);
      order[k] = k;
    }
    for (std::size_t k = 1; k < nf; ++k) {  // insertion sort: nf <= 8
      const std::size_t v = order[k];
      std::size_t j = k;
      while (j > 0 && bounds[order[j - 1]] < bounds[v]) {
        order[j] = order[j - 1];
        --j;
      }
      order[j] = v;
    }

    for (std::size_t k = 0; k < nf; ++k) {
      const double bound = bounds[order[k]];
      if (bound < threshold()) break;
      const std::size_t t = t0 + order[k];
      if (!in_play(bound, tiles.fine_min[t])) continue;
      const std::size_t count = tiles.count(t);
      const std::uint32_t* tile_points = tiles.point.data() + t * kTile;
      [[maybe_unused]] const std::uint32_t* tile_columns =
          tiles.column.data() + t * kTile;
      // The dense epilogue: both dot rows and W for the whole tile (the
      // padded tail of a ragged tile scores 0, and `count` discards it).
      tile_dots(matrix_.tile_block(t), pan.rows.data(), mb.ps, mb.pr, m_count, dsg, drg);
      tile_w(dsg, drg, pan.root_norms.data() + t * kTile, mb.snr_norm, mb.rssi_norm, w);
      double best = mb.best;
      std::size_t best_g = mb.best_g;
      for (std::size_t gi = 0; gi < count; ++gi) {
        const std::size_t g = tile_points[gi];
        const bool new_peak = w[gi] > best || (w[gi] == best && g < best_g);
        if (new_peak) {
          best = w[gi];
          best_g = g;
        }
        if constexpr (kConfidence) {
          const std::size_t point_ia = tile_columns[gi];
          const bool column_rose = w[gi] > columns[point_ia];
          if (column_rose) columns[point_ia] = w[gi];
          if (!speculate) continue;
          if (new_peak && point_ia != mb.peak_column) {
            // The peak moved: its zone did too, so retake the rival
            // over every column outside the new zone.
            mb.peak_column = point_ia;
            mb.rival = -1.0;
            const std::size_t lo = point_ia > zone_half ? point_ia - zone_half : 0;
            for (std::size_t j = 0; j < lo; ++j) mb.rival = std::max(mb.rival, columns[j]);
            for (std::size_t j = point_ia + zone_half + 1; j < n_az; ++j) {
              mb.rival = std::max(mb.rival, columns[j]);
            }
          } else if (column_rose && w[gi] > mb.rival && outside(point_ia)) {
            mb.rival = w[gi];  // below the peak: the peak's column is inside
          }
          mb.rival_used = std::max(mb.rival_used, mb.rival);
        }
      }
      mb.best = best;
      mb.best_g = best_g;
      ++ws.walk_stats_.fine_evaluated;
      ws.walk_stats_.points_evaluated += count;
    }
  }
  return mb;
}

}  // namespace talon
