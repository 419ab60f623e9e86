// Experiment runners for the paper's evaluation (Sec. 6).
//
// Mirrors the paper's methodology: a *recording pass* collects full
// 34-sector sweeps at every rotation-head pose ("we make the two devices
// perform sector sweeps ... and record the signal strength as SNR and RSSI
// value for each sweep and sector"), and *offline analyses* then replay
// those recordings with a variable number of random probing sectors
// ("we only consider a variable number of random measurements in each
// sweep") to produce Figs. 7, 8 and 9. The throughput experiment (Fig. 11)
// runs live because it needs the true link SNR of whichever sector each
// algorithm selects -- and it drives the firmware override end-to-end.
//
// Determinism contract: every randomized trial draws from a counter-based
// substream seeded by substream_seed(seed, <stream tag>, <cell coords>)
// (common/rng.hpp), never from a shared sequential Rng. A trial's draws
// therefore depend only on its coordinates -- (pose, sweep) for recording,
// (probe count, pose) for the replay analyses, pose for throughput -- so
// results are bit-identical for any thread count, including 1, and for any
// iteration order.
#pragma once

#include <functional>
#include <vector>

#include "src/common/stats.hpp"
#include "src/core/selector.hpp"
#include "src/core/subset_policy.hpp"
#include "src/phy/throughput.hpp"
#include "src/sim/scenario.hpp"

namespace talon {

/// Execution knobs of the offline replay engine. Threads only distribute
/// independent trial cells, so no result depends on them. Each cell
/// selects in its own CssSelector (its own workspace) over the shared
/// CompressiveSectorSelector, and hands it all of the cell's sweeps as one
/// batch, which resolves their shared panel once and walks each sweep
/// alone.
struct ReplayOptions {
  /// Worker threads; <= 0 means default_thread_count() (the --threads /
  /// TALON_THREADS override when set, hardware concurrency otherwise).
  int threads{0};
};

/// One recorded full sweep at one rotation-head pose.
struct SweepRecord {
  int pose_index{0};
  Direction physical;  ///< nominal peer direction (ground truth)
  SweepMeasurement measurement;
};

struct RecordingConfig {
  std::vector<double> head_azimuths_deg;
  std::vector<double> head_tilts_deg{0.0};
  std::size_t sweeps_per_pose{10};
  std::uint64_t seed{1};
};

/// Data-collection pass: full sweeps DUT -> peer at every pose. Each
/// (pose, sweep) trial runs on its own substream-seeded link, so a record
/// depends only on its coordinates: recording fewer sweeps per pose, or a
/// prefix of the poses, reproduces the shared records bit for bit.
std::vector<SweepRecord> record_sweeps(Scenario& scenario,
                                       const RecordingConfig& config);

// --- Fig. 7: angular estimation error ------------------------------------

struct EstimationErrorRow {
  std::size_t probes{0};
  BoxStats azimuth_error;
  BoxStats elevation_error;
  std::size_t samples{0};
};

/// The Eq. 3 estimate of `selector` against the ground truth; sweeps with
/// too few decoded probes for an estimate are skipped. One probe subset
/// is drawn per (probe count, pose) cell and replayed against all of that
/// pose's sweeps -- the cells are independent and run on the parallel
/// executor.
std::vector<EstimationErrorRow> estimation_error_analysis(
    std::span<const SweepRecord> records, const CssSelector& selector,
    std::span<const std::size_t> probe_counts, const ProbeSubsetPolicy& policy,
    std::uint64_t seed, const ReplayOptions& options = {});

// --- Figs. 8 and 9: selection stability and SNR loss ----------------------

struct SelectionQualityRow {
  std::size_t probes{0};
  double css_stability{0.0};
  double ssw_stability{0.0};  ///< constant across probe counts (full sweep)
  double css_snr_loss_db{0.0};
  double ssw_snr_loss_db{0.0};
};

/// `selector` plays the compressive role against the built-in SSW
/// (full-sweep argmax) baseline. Cells are (probe count, pose) pairs, each
/// with its own substream and subset; sweeps within a cell replay in
/// recording order (stability and SNR loss are sequential quantities).
std::vector<SelectionQualityRow> selection_quality_analysis(
    std::span<const SweepRecord> records, const CssSelector& selector,
    std::span<const std::size_t> probe_counts, const ProbeSubsetPolicy& policy,
    std::uint64_t seed, const ReplayOptions& options = {});

// --- Fig. 11: application throughput --------------------------------------

struct ThroughputConfig {
  std::vector<double> head_azimuths_deg{-45.0, 0.0, 45.0};
  std::size_t probes{14};
  std::size_t sweeps_per_pose{40};
  /// When true, time spent training is credited back as data airtime
  /// (the Sec. 6.4 "future work" term; the paper's comparison uses false).
  bool account_training_time{false};
  std::uint64_t seed{1};
};

struct ThroughputPoint {
  double head_azimuth_deg{0.0};
  double css_mbps{0.0};
  double ssw_mbps{0.0};
};

/// Builds one fresh Scenario per call. Each pose of the Fig. 11 sweep gets
/// its own scenario instance (head pose, firmware state and link are all
/// mutable), which is what lets poses run in parallel.
using ScenarioFactory = std::function<Scenario()>;

/// Live run: CSS selections are installed into the peer-facing feedback via
/// the firmware's WMI sector override (the Sec. 3.4 mechanism), the SSW
/// baseline uses the stock argmax feedback. Poses are independent cells on
/// the parallel executor, each with a substream-seeded link and subset
/// stream.
std::vector<ThroughputPoint> throughput_analysis(const ScenarioFactory& make_scenario,
                                                 const CssSelector& selector,
                                                 const ThroughputModel& model,
                                                 const ThroughputConfig& config,
                                                 const ReplayOptions& options = {});

}  // namespace talon
