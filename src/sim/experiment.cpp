#include "src/sim/experiment.hpp"

#include <algorithm>
#include <map>

#include "src/common/error.hpp"
#include "src/common/parallel.hpp"
#include "src/core/metrics.hpp"
#include "src/core/ssw.hpp"

namespace talon {

namespace {

// Stream tags keep the substream families of the four runners disjoint:
// substream_seed(seed, tag, ...) collides across runners only if the tags
// collide. The values live in common/rng.hpp's registry (streams::) so
// every runner in the codebase shares one uniqueness-checked namespace.
constexpr std::uint64_t kRecordingStream = streams::kRecording;
constexpr std::uint64_t kErrorStream = streams::kError;
constexpr std::uint64_t kQualityStream = streams::kQuality;
constexpr std::uint64_t kThroughputStream = streams::kThroughput;

/// Convert drained ring-buffer entries of one sweep into readings.
std::vector<SectorReading> readings_from_ring(
    const std::vector<SweepInfoEntry>& entries, std::uint32_t sweep_index) {
  std::vector<SectorReading> out;
  for (const SweepInfoEntry& e : entries) {
    if (e.sweep_index != sweep_index) continue;
    out.push_back(SectorReading{
        .sector_id = e.sector_id, .snr_db = e.snr_db, .rssi_dbm = e.rssi_dbm});
  }
  return out;
}

/// Record indices grouped by pose, ascending pose order (std::map). All
/// replay aggregation walks poses in this order regardless of which thread
/// computed which cell.
std::map<int, std::vector<std::size_t>> group_by_pose(
    std::span<const SweepRecord> records) {
  std::map<int, std::vector<std::size_t>> poses;
  for (std::size_t i = 0; i < records.size(); ++i) {
    poses[records[i].pose_index].push_back(i);
  }
  return poses;
}

/// The filtered per-sweep probe lists of one replay cell: every sweep of
/// `indices` restricted to the cell's probe subset, in reading order.
std::vector<std::vector<SectorReading>> cell_sweeps(
    std::span<const SweepRecord> records, std::span<const std::size_t> indices,
    std::span<const int> subset) {
  std::vector<int> wanted(subset.begin(), subset.end());  // once per cell
  std::sort(wanted.begin(), wanted.end());
  std::vector<std::vector<SectorReading>> sweeps(indices.size());
  for (std::size_t k = 0; k < indices.size(); ++k) {
    sweeps[k].reserve(subset.size());
    for (const SectorReading& r : records[indices[k]].measurement.readings) {
      if (std::binary_search(wanted.begin(), wanted.end(), r.sector_id)) {
        sweeps[k].push_back(r);
      }
    }
  }
  return sweeps;
}

}  // namespace

std::vector<SweepRecord> record_sweeps(Scenario& scenario,
                                       const RecordingConfig& config) {
  TALON_EXPECTS(!config.head_azimuths_deg.empty());
  TALON_EXPECTS(!config.head_tilts_deg.empty());
  TALON_EXPECTS(config.sweeps_per_pose >= 1);

  std::vector<SweepRecord> records;
  records.reserve(config.head_azimuths_deg.size() * config.head_tilts_deg.size() *
                  config.sweeps_per_pose);
  int pose_index = 0;
  for (double tilt : config.head_tilts_deg) {
    for (double az : config.head_azimuths_deg) {
      scenario.set_head(az, tilt);
      for (std::size_t s = 0; s < config.sweeps_per_pose; ++s) {
        // Each (pose, sweep) trial gets its own substream-seeded link: a
        // record's noise depends only on its (pose, sweep) coordinates,
        // never on how many frames other trials transmitted before it.
        // Recording fewer sweeps or a pose prefix reproduces the shared
        // records exactly.
        LinkSimulator link = scenario.make_link(Rng(substream_seed(
            config.seed, kRecordingStream,
            static_cast<std::uint64_t>(pose_index), s)));
        SweepOutcome outcome = link.transmit_sweep(*scenario.dut, *scenario.peer,
                                                   sweep_burst_schedule());
        records.push_back(SweepRecord{
            .pose_index = pose_index,
            .physical = scenario.nominal_peer_direction(),
            .measurement = std::move(outcome.measurement),
        });
      }
      ++pose_index;
    }
  }
  return records;
}

std::vector<EstimationErrorRow> estimation_error_analysis(
    std::span<const SweepRecord> records, const CssSelector& selector,
    std::span<const std::size_t> probe_counts, const ProbeSubsetPolicy& policy,
    std::uint64_t seed, const ReplayOptions& options) {
  TALON_EXPECTS(!records.empty());
  const std::vector<int>& all_tx = talon_tx_sector_ids();
  for (std::size_t m : probe_counts) {
    TALON_EXPECTS(m >= 2 && m <= all_tx.size());
  }

  const std::map<int, std::vector<std::size_t>> poses = group_by_pose(records);

  // One cell per (probe count, pose), probe-count-major so aggregation can
  // walk the flat result array in row order.
  struct Cell {
    std::size_t m{0};
    int pose{0};
    const std::vector<std::size_t>* indices{nullptr};
  };
  std::vector<Cell> cells;
  cells.reserve(probe_counts.size() * poses.size());
  for (std::size_t m : probe_counts) {
    for (const auto& [pose, indices] : poses) {
      cells.push_back(Cell{.m = m, .pose = pose, .indices = &indices});
    }
  }

  struct CellErrors {
    std::vector<double> az;
    std::vector<double> el;
  };
  std::vector<CellErrors> results(cells.size());

  parallel_for(
      cells.size(),
      [&](std::size_t c) {
        const Cell& cell = cells[c];
        CssSelector worker(selector.css());
        Rng rng(substream_seed(seed, kErrorStream, cell.m,
                               static_cast<std::uint64_t>(cell.pose)));
        const std::vector<int> subset = policy.choose(all_tx, cell.m, rng);
        const std::vector<std::vector<SectorReading>> sweeps =
            cell_sweeps(records, *cell.indices, subset);

        const std::vector<CssResult> selected = worker.select_batch(sweeps);

        CellErrors& out = results[c];
        for (std::size_t k = 0; k < sweeps.size(); ++k) {
          const std::optional<Direction>& estimate = selected[k].estimated_direction;
          if (!estimate) continue;  // too few decoded probes this sweep
          const AngleError err =
              estimation_error(*estimate, records[(*cell.indices)[k]].physical);
          out.az.push_back(err.azimuth_deg);
          out.el.push_back(err.elevation_deg);
        }
      },
      ParallelOptions{.threads = options.threads});

  std::vector<EstimationErrorRow> rows;
  rows.reserve(probe_counts.size());
  std::size_t c = 0;
  for (std::size_t m : probe_counts) {
    std::vector<double> az_errors;
    std::vector<double> el_errors;
    for (std::size_t p = 0; p < poses.size(); ++p, ++c) {
      az_errors.insert(az_errors.end(), results[c].az.begin(), results[c].az.end());
      el_errors.insert(el_errors.end(), results[c].el.begin(), results[c].el.end());
    }
    EstimationErrorRow row;
    row.probes = m;
    row.samples = az_errors.size();
    if (!az_errors.empty()) {
      row.azimuth_error = box_stats(az_errors);
      row.elevation_error = box_stats(el_errors);
    }
    rows.push_back(row);
  }
  return rows;
}

std::vector<SelectionQualityRow> selection_quality_analysis(
    std::span<const SweepRecord> records, const CssSelector& selector,
    std::span<const std::size_t> probe_counts, const ProbeSubsetPolicy& policy,
    std::uint64_t seed, const ReplayOptions& options) {
  TALON_EXPECTS(!records.empty());
  const std::vector<int>& all_tx = talon_tx_sector_ids();
  for (std::size_t m : probe_counts) {
    TALON_EXPECTS(m >= 2 && m <= all_tx.size());
  }

  // Group record indices by pose; stability is a per-pose quantity.
  const std::map<int, std::vector<std::size_t>> poses = group_by_pose(records);
  std::vector<const std::vector<std::size_t>*> pose_cells;
  pose_cells.reserve(poses.size());
  for (const auto& [pose, indices] : poses) pose_cells.push_back(&indices);

  // Per-cell replay outcome: sweeps within a cell run in recording order
  // because stability counts selection *switches* and SnrLossTracker
  // compares against the previous measurement.
  struct PoseQuality {
    bool has_selections{false};
    double stability{0.0};
    std::vector<double> losses;
  };

  // --- SSW baseline: probes everything, independent of m -------------------
  // Losses are tracked per pose: "the sector with the highest SNR as
  // reported in the current and previous measurements" only makes sense
  // while the geometry stays fixed.
  std::vector<PoseQuality> ssw_cells(pose_cells.size());
  parallel_for(
      pose_cells.size(),
      [&](std::size_t p) {
        std::vector<int> selections;
        SnrLossTracker loss;
        int previous = -1;
        for (std::size_t i : *pose_cells[p]) {
          const SswSelection sel = sweep_select(records[i].measurement.readings);
          const int chosen = sel.valid ? sel.sector_id : previous;
          if (chosen < 0) continue;  // nothing decoded yet at this pose
          previous = chosen;
          selections.push_back(chosen);
          loss.record(records[i].measurement, chosen);
        }
        PoseQuality& out = ssw_cells[p];
        out.has_selections = !selections.empty();
        if (out.has_selections) out.stability = selection_stability(selections);
        out.losses = loss.losses();
      },
      ParallelOptions{.threads = options.threads});

  double ssw_stability_sum = 0.0;
  std::vector<double> ssw_losses;
  for (const PoseQuality& cell : ssw_cells) {
    if (cell.has_selections) ssw_stability_sum += cell.stability;
    ssw_losses.insert(ssw_losses.end(), cell.losses.begin(), cell.losses.end());
  }
  const double ssw_stability = ssw_stability_sum / static_cast<double>(poses.size());
  const double ssw_loss_db = mean(ssw_losses);

  // --- CSS for each (probe count, pose) cell -------------------------------
  struct Cell {
    std::size_t m{0};
    int pose{0};
    const std::vector<std::size_t>* indices{nullptr};
  };
  std::vector<Cell> cells;
  cells.reserve(probe_counts.size() * poses.size());
  for (std::size_t m : probe_counts) {
    for (const auto& [pose, indices] : poses) {
      cells.push_back(Cell{.m = m, .pose = pose, .indices = &indices});
    }
  }
  std::vector<PoseQuality> css_cells(cells.size());

  parallel_for(
      cells.size(),
      [&](std::size_t c) {
        const Cell& cell = cells[c];
        CssSelector worker(selector.css());
        Rng rng(substream_seed(seed, kQualityStream, cell.m,
                               static_cast<std::uint64_t>(cell.pose)));
        const std::vector<int> subset = policy.choose(all_tx, cell.m, rng);
        const std::vector<std::vector<SectorReading>> sweeps =
            cell_sweeps(records, *cell.indices, subset);

        const std::vector<CssResult> selected = worker.select_batch(sweeps, all_tx);

        std::vector<int> selections;
        SnrLossTracker loss;
        int previous = -1;
        for (std::size_t k = 0; k < sweeps.size(); ++k) {
          const int chosen = selected[k].valid ? selected[k].sector_id : previous;
          if (chosen < 0) continue;
          previous = chosen;
          selections.push_back(chosen);
          loss.record(records[(*cell.indices)[k]].measurement, chosen);
        }
        PoseQuality& out = css_cells[c];
        out.has_selections = !selections.empty();
        if (out.has_selections) out.stability = selection_stability(selections);
        out.losses = loss.losses();
      },
      ParallelOptions{.threads = options.threads});

  std::vector<SelectionQualityRow> rows;
  rows.reserve(probe_counts.size());
  std::size_t c = 0;
  for (std::size_t m : probe_counts) {
    double css_stability_sum = 0.0;
    std::vector<double> css_losses;
    for (std::size_t p = 0; p < poses.size(); ++p, ++c) {
      if (css_cells[c].has_selections) css_stability_sum += css_cells[c].stability;
      css_losses.insert(css_losses.end(), css_cells[c].losses.begin(),
                        css_cells[c].losses.end());
    }
    rows.push_back(SelectionQualityRow{
        .probes = m,
        .css_stability = css_stability_sum / static_cast<double>(poses.size()),
        .ssw_stability = ssw_stability,
        .css_snr_loss_db = mean(css_losses),
        .ssw_snr_loss_db = ssw_loss_db,
    });
  }
  return rows;
}

std::vector<ThroughputPoint> throughput_analysis(const ScenarioFactory& make_scenario,
                                                 const CssSelector& selector,
                                                 const ThroughputModel& model,
                                                 const ThroughputConfig& config,
                                                 const ReplayOptions& options) {
  TALON_EXPECTS(config.probes >= 2);
  const std::vector<int>& all_tx = talon_tx_sector_ids();

  const TimingModel timing;
  const double css_training_s =
      config.account_training_time
          ? timing.mutual_training_time_ms(static_cast<int>(config.probes)) / 1000.0
          : 0.0;
  const double ssw_training_s =
      config.account_training_time
          ? timing.mutual_training_time_ms(kFullSweepProbes) / 1000.0
          : 0.0;

  std::vector<ThroughputPoint> points(config.head_azimuths_deg.size());
  parallel_for(
      config.head_azimuths_deg.size(),
      [&](std::size_t p) {
        Scenario scenario = make_scenario();
        scenario.set_head(config.head_azimuths_deg[p], 0.0);
        CssSelector worker(selector.css());
        RandomSubsetPolicy subset_policy;
        Rng rng(substream_seed(config.seed, kThroughputStream, p));

        // The peer produces the feedback that steers the DUT; it needs the
        // research patches for the ring buffer and the override switch.
        FullMacFirmware& peer_fw = scenario.peer->firmware();
        if (!peer_fw.patcher().is_applied("sweep-info")) {
          peer_fw.apply_research_patches();
        }

        LinkSimulator link = scenario.make_link(rng.fork());

        RunningStats css_tput;
        RunningStats ssw_tput;
        int css_previous = -1;
        int ssw_previous = -1;
        for (std::size_t s = 0; s < config.sweeps_per_pose; ++s) {
          // --- CSS sweep: probing subset, user-space selection, WMI override ---
          const std::vector<int> subset =
              subset_policy.choose(all_tx, config.probes, rng);
          const auto schedule = probing_burst_schedule(subset);
          link.transmit_sweep(*scenario.dut, *scenario.peer, schedule);
          // User space drains the ring buffer and runs CSS on this sweep.
          WmiResponse info =
              peer_fw.handle_wmi({.type = WmiCommandType::kReadSweepInfo});
          TALON_EXPECTS(info.status == WmiStatus::kOk);
          const auto probes = readings_from_ring(info.entries, peer_fw.sweep_index());
          const CssResult result = worker.select(probes, all_tx);
          const int css_sector = result.valid ? result.sector_id
                                 : css_previous >= 0 ? css_previous
                                                     : all_tx.front();
          const bool css_switched = css_previous >= 0 && css_sector != css_previous;
          css_previous = css_sector;
          const WmiResponse set = peer_fw.handle_wmi(
              {.type = WmiCommandType::kSetSectorOverride, .sector_id = css_sector});
          TALON_EXPECTS(set.status == WmiStatus::kOk);
          css_tput.add(model.app_throughput_mbps(
              link.true_snr_db(*scenario.dut, css_sector, *scenario.peer,
                               kRxQuasiOmniSectorId),
              css_training_s, css_switched));

          // --- SSW sweep: full schedule, stock argmax feedback ------------------
          peer_fw.handle_wmi({.type = WmiCommandType::kClearSectorOverride});
          const SweepOutcome full = link.transmit_sweep(*scenario.dut, *scenario.peer,
                                                        sweep_burst_schedule());
          const int ssw_sector = full.feedback.selected_sector_id;
          const bool ssw_switched = ssw_previous >= 0 && ssw_sector != ssw_previous;
          ssw_previous = ssw_sector;
          ssw_tput.add(model.app_throughput_mbps(
              link.true_snr_db(*scenario.dut, ssw_sector, *scenario.peer,
                               kRxQuasiOmniSectorId),
              ssw_training_s, ssw_switched));
          // Drain the ring so the next CSS pass only sees its own sweep.
          peer_fw.handle_wmi({.type = WmiCommandType::kReadSweepInfo});
        }
        points[p] = ThroughputPoint{
            .head_azimuth_deg = config.head_azimuths_deg[p],
            .css_mbps = css_tput.mean(),
            .ssw_mbps = ssw_tput.mean(),
        };
      },
      ParallelOptions{.threads = options.threads});
  return points;
}

}  // namespace talon
