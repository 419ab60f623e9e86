// Microbenchmarks (google-benchmark): the computational cost of the CSS
// building blocks. The paper argues CSS "scales well with high number of
// sectors" (Sec. 7); these benches quantify the host-side compute of one
// selection against the probe count and the search-grid resolution, plus
// the baseline argmax and the firmware-path primitives.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string_view>
#include <vector>

#include "bench/common.hpp"
#include "src/common/cpufeatures.hpp"
#include "src/common/parallel.hpp"
#include "src/antenna/synthesis.hpp"
#include "src/core/css.hpp"
#include "src/core/ssw.hpp"
#include "src/core/subset_policy.hpp"
#include "src/antenna/codebook_io.hpp"
#include "src/core/refinement.hpp"
#include "src/firmware/device.hpp"
#include "src/phy/rate_control.hpp"
#include "src/sim/contention.hpp"
#include "src/sim/scenario.hpp"

namespace talon {
namespace {

const PatternTable& shared_table() {
  static const PatternTable table =
      bench::standard_pattern_table(bench::Fidelity::kQuick);
  return table;
}

std::vector<SectorReading> make_probes(std::size_t m, std::uint64_t seed) {
  Scenario lab = make_lab_scenario(bench::kDutSeed);
  lab.set_head(20.0, 0.0);
  LinkSimulator link = lab.make_link(Rng(seed));
  RandomSubsetPolicy policy;
  Rng rng(seed + 1);
  const auto subset = policy.choose(talon_tx_sector_ids(), m, rng);
  return link.transmit_sweep(*lab.dut, *lab.peer, probing_burst_schedule(subset))
      .measurement.readings;
}

void BM_CssSelect(benchmark::State& state) {
  // One selection with a warm caller-owned workspace (the LinkSession
  // steady state): probe collection, the branch-and-bound walk and the
  // Eq. 4 sector mapping.
  const CompressiveSectorSelector css(shared_table());
  const auto probes = make_probes(static_cast<std::size_t>(state.range(0)), 7);
  CorrelationWorkspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(css.select(probes, ws));
  }
}
BENCHMARK(BM_CssSelect)->Arg(6)->Arg(14)->Arg(24)->Arg(34);

void BM_CssSelectConfidence(benchmark::State& state) {
  // BM_CssSelect in degradation mode: the walk's rival pass adds the
  // peak-to-second-peak confidence.
  CssConfig config;
  config.compute_confidence = true;
  const CompressiveSectorSelector css(shared_table(), config);
  const auto probes = make_probes(static_cast<std::size_t>(state.range(0)), 7);
  CorrelationWorkspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(css.select(probes, ws));
  }
}
BENCHMARK(BM_CssSelectConfidence)->Arg(14);

void BM_CssSelectGridResolution(benchmark::State& state) {
  // Cost vs search-grid resolution (azimuth step in tenths of a degree).
  const double step = static_cast<double>(state.range(0)) / 10.0;
  CssConfig config;
  config.search_grid.azimuth = make_axis(-90.0, 90.0, step);
  const CompressiveSectorSelector css(shared_table(), config);
  const auto probes = make_probes(14, 11);
  CorrelationWorkspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(css.select(probes, ws));
  }
}
BENCHMARK(BM_CssSelectGridResolution)->Arg(5)->Arg(15)->Arg(30)->Arg(60);

void BM_CombinedArgmax(benchmark::State& state) {
  // The selection hot path: branch-and-bound Eq. 5 peak with a warm
  // caller-owned workspace (the LinkSession steady state). Compare against
  // BM_CorrelationSurface at the same probe count for the pruning gain --
  // both return the identical peak.
  const CorrelationEngine engine(shared_table(),
                                 AngularGrid{make_axis(-90.0, 90.0, 1.5),
                                             make_axis(0.0, 32.0, 2.0)});
  const auto probes = make_probes(static_cast<std::size_t>(state.range(0)), 17);
  CorrelationWorkspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.combined_argmax(probes, ws));
  }
}
BENCHMARK(BM_CombinedArgmax)->Arg(6)->Arg(10)->Arg(14)->Arg(20)->Arg(34);

void BM_CombinedArgmaxGridResolution(benchmark::State& state) {
  // Pruning gain vs grid density (azimuth step in tenths of a degree):
  // denser grids mean more points per tile below the bound, so the argmax
  // advantage over the full surface grows with resolution.
  const double step = static_cast<double>(state.range(0)) / 10.0;
  const CorrelationEngine engine(shared_table(),
                                 AngularGrid{make_axis(-90.0, 90.0, step),
                                             make_axis(0.0, 32.0, 2.0)});
  const auto probes = make_probes(14, 11);
  CorrelationWorkspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.combined_argmax(probes, ws));
  }
}
BENCHMARK(BM_CombinedArgmaxGridResolution)->Arg(5)->Arg(15)->Arg(30)->Arg(60);

void BM_CombinedArgmaxBatch(benchmark::State& state) {
  // K links sharing one probing subset, resolved in ONE batched pyramid
  // walk (the dense-deployment daemon path). items/s is argmaxes per
  // second; compare the per-item time against BM_CombinedArgmax/14 for
  // the batching gain -- the results are bit-identical either way.
  const CorrelationEngine engine(shared_table(),
                                 AngularGrid{make_axis(-90.0, 90.0, 1.5),
                                             make_axis(0.0, 32.0, 2.0)});
  std::vector<std::vector<SectorReading>> sweeps;
  for (std::size_t b = 0; b < static_cast<std::size_t>(state.range(0)); ++b) {
    sweeps.push_back(make_probes(14, 17));  // same seed: same slot sequence
    for (SectorReading& r : sweeps.back()) {
      r.snr_db += 0.01 * static_cast<double>(b);
      r.rssi_dbm += 0.01 * static_cast<double>(b);
    }
  }
  const std::vector<std::span<const SectorReading>> views(sweeps.begin(),
                                                          sweeps.end());
  std::vector<CorrelationEngine::ArgmaxResult> out(views.size());
  CorrelationWorkspace ws;
  for (auto _ : state) {
    engine.combined_argmax_batch(views, out, ws);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CombinedArgmaxBatch)->Arg(1)->Arg(16)->Arg(64);

void BM_CombinedArgmaxScalarDispatch(benchmark::State& state) {
  // BM_CombinedArgmax/14 with the scalar tile kernel pinned: the spread
  // against the default-dispatch run is the SIMD speedup on this host
  // (zero on machines whose detected level is already scalar).
  set_simd_level_override(SimdLevel::kScalar);
  const CorrelationEngine engine(shared_table(),
                                 AngularGrid{make_axis(-90.0, 90.0, 1.5),
                                             make_axis(0.0, 32.0, 2.0)});
  const auto probes = make_probes(14, 17);
  CorrelationWorkspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.combined_argmax(probes, ws));
  }
  clear_simd_level_override();
}
BENCHMARK(BM_CombinedArgmaxScalarDispatch);

void BM_SswArgmax(benchmark::State& state) {
  const auto probes = make_probes(34, 13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sweep_select(probes));
  }
}
BENCHMARK(BM_SswArgmax);

void BM_CorrelationSurface(benchmark::State& state) {
  const CorrelationEngine engine(shared_table(),
                                 AngularGrid{make_axis(-90.0, 90.0, 1.5),
                                             make_axis(0.0, 32.0, 2.0)});
  const auto probes = make_probes(static_cast<std::size_t>(state.range(0)), 17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.combined_surface(probes));
  }
}
BENCHMARK(BM_CorrelationSurface)->Arg(6)->Arg(10)->Arg(14)->Arg(20)->Arg(34);

void BM_MatchingPursuit(benchmark::State& state) {
  // Cost per pursuit call; the grid scan dominates, so ns/iteration is
  // roughly ns/call divided by the number of extracted paths.
  const CorrelationEngine engine(shared_table(),
                                 AngularGrid{make_axis(-90.0, 90.0, 1.5),
                                             make_axis(0.0, 32.0, 2.0)});
  const auto probes = make_probes(14, 17);
  const int max_paths = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.matching_pursuit(probes, max_paths, 0.05));
  }
}
BENCHMARK(BM_MatchingPursuit)->Arg(1)->Arg(2)->Arg(4);

void BM_ArrayGainEvaluation(benchmark::State& state) {
  const ArrayGainSource source = make_talon_front_end(1);
  double az = -60.0;
  for (auto _ : state) {
    az = az >= 60.0 ? -60.0 : az + 0.1;
    benchmark::DoNotOptimize(source.gain_dbi(8, {az, 5.0}));
  }
}
BENCHMARK(BM_ArrayGainEvaluation);

void BM_FirmwareSweepPath(benchmark::State& state) {
  // One full responder sweep through the patched firmware: begin, 34
  // frames into the ring buffer, feedback, WMI drain.
  FullMacFirmware fw;
  fw.apply_research_patches();
  for (auto _ : state) {
    fw.begin_peer_sweep();
    for (int id : talon_tx_sector_ids()) {
      fw.on_ssw_frame(SswField{.cdown = 0, .sector_id = id},
                      SectorReading{.sector_id = id, .snr_db = 5.0, .rssi_dbm = -60});
    }
    benchmark::DoNotOptimize(fw.end_peer_sweep());
    benchmark::DoNotOptimize(fw.handle_wmi({.type = WmiCommandType::kReadSweepInfo}));
  }
}
BENCHMARK(BM_FirmwareSweepPath);

void BM_SubsetPolicyRandom(benchmark::State& state) {
  RandomSubsetPolicy policy;
  Rng rng(23);
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.choose(talon_tx_sector_ids(), 14, rng));
  }
}
BENCHMARK(BM_SubsetPolicyRandom);

void BM_PatternTableCsvRoundTrip(benchmark::State& state) {
  const CsvTable csv = shared_table().to_csv();
  for (auto _ : state) {
    benchmark::DoNotOptimize(PatternTable::from_csv(csv));
  }
}
BENCHMARK(BM_PatternTableCsvRoundTrip);


void BM_RefinementCandidates(benchmark::State& state) {
  const PlanarArrayGeometry geometry = talon_array_geometry();
  const RefinementConfig config;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        make_refinement_candidates(geometry, {20.0, 5.0}, config));
  }
}
BENCHMARK(BM_RefinementCandidates);

void BM_CodebookSerialize(benchmark::State& state) {
  const PlanarArrayGeometry geometry = talon_array_geometry();
  const Codebook codebook = make_talon_codebook(geometry);
  for (auto _ : state) {
    benchmark::DoNotOptimize(serialize_codebook(codebook, geometry, 16, 4));
  }
}
BENCHMARK(BM_CodebookSerialize);

void BM_CodebookParse(benchmark::State& state) {
  const PlanarArrayGeometry geometry = talon_array_geometry();
  const auto blob = serialize_codebook(make_talon_codebook(geometry), geometry, 16, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(parse_codebook(blob));
  }
}
BENCHMARK(BM_CodebookParse);

void BM_RateControllerDrive(benchmark::State& state) {
  RateController controller;
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(controller.drive(15.0, 100, rng));
  }
}
BENCHMARK(BM_RateControllerDrive);

void BM_ContentionSimulation(benchmark::State& state) {
  const ThroughputModel model;
  ContentionConfig config;
  config.pairs = static_cast<int>(state.range(0));
  config.trainings_per_second = 10.0;
  config.simulated_seconds = 10.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulate_channel_contention(config, model));
  }
}
BENCHMARK(BM_ContentionSimulation)->Arg(10)->Arg(100);

}  // namespace
}  // namespace talon

// Not BENCHMARK_MAIN(): google-benchmark rejects flags it does not know,
// and every talon bench driver must accept --threads. Strip it (installing
// the executor override) before handing argv to the library.
int main(int argc, char** argv) {
  std::vector<char*> filtered;
  filtered.reserve(static_cast<std::size_t>(argc));
  int threads = 0;
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--threads" && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
      continue;
    }
    if (arg.rfind("--threads=", 0) == 0) {
      threads = std::atoi(argv[i] + 10);
      continue;
    }
    filtered.push_back(argv[i]);
  }
  if (threads > 0) talon::set_thread_count_override(threads);
  int filtered_argc = static_cast<int>(filtered.size());
  benchmark::Initialize(&filtered_argc, filtered.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, filtered.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
