// Microbenchmarks (google-benchmark): the computational cost of the CSS
// building blocks. The paper argues CSS "scales well with high number of
// sectors" (Sec. 7); these benches quantify the host-side compute of one
// selection against the probe count and the search-grid resolution, plus
// the baseline argmax and the firmware-path primitives.
//
// The selection benches time a seeded pool of realistic sweeps, not one
// probe vector: lab and conference venues, heads spread over +-60 deg, a
// fresh random subset per sweep. Each iteration selects the next sweep of
// the pool, so ns/iteration is one selection averaged over the pool. Use
// it for same-host kernel A/B runs; the repository's speed numbers live
// in perfbench/. BM_CombinedArgmax and BM_CssSelectConfidence also report
// the walk's eval_tile_share over one untimed pass of the pool: fine tiles
// evaluated per selection over the grid's fine tiles. Every point of an
// evaluated tile pays the exact W (tile_dots, then tile_w), so that share
// sizes all of the walk's epilogue work.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <numeric>
#include <random>
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
#include "src/sim/contention.hpp"
#include "src/sim/scenario.hpp"

namespace talon {
namespace {

const PatternTable& shared_table() {
  static const PatternTable table =
      bench::standard_pattern_table(bench::Fidelity::kQuick);
  return table;
}

using Sweeps = std::vector<std::vector<SectorReading>>;

/// `count` seeded sweeps of `m` probes, alternating the lab and the
/// conference venue, each at a head azimuth drawn uniformly over +-60 deg
/// and probing a fresh random subset.
Sweeps make_sweeps(std::size_t count, std::size_t m) {
  Scenario lab = make_lab_scenario(bench::kDutSeed);
  Scenario conference = make_conference_scenario(bench::kDutSeed);
  RandomSubsetPolicy policy;
  Rng rng(7 + m);
  Sweeps sweeps;
  for (std::size_t i = 0; i < count; ++i) {
    Scenario& venue = i % 2 == 0 ? lab : conference;
    venue.set_head(rng.uniform(-60.0, 60.0), 0.0);
    const std::vector<int> subset = policy.choose(talon_tx_sector_ids(), m, rng);
    LinkSimulator link = venue.make_link(rng.fork());
    sweeps.push_back(
        link.transmit_sweep(*venue.dut, *venue.peer, probing_burst_schedule(subset))
            .measurement.readings);
  }
  return sweeps;
}

/// The 64-sweep pool of m-probe sweeps the selection benches cycle through.
const Sweeps& sweep_pool(std::size_t m) {
  static std::map<std::size_t, Sweeps> pools;
  auto [it, inserted] = pools.try_emplace(m);
  if (inserted) it->second = make_sweeps(64, m);
  return it->second;
}

/// Runs `select` once over the pool untimed (panel builds and workspace
/// growth stay out of the measurement), then times one sweep per
/// iteration, cycling through the pool.
template <typename Select>
void cycle_pool(benchmark::State& state, const Sweeps& pool, Select select) {
  for (const auto& sweep : pool) benchmark::DoNotOptimize(select(sweep));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(select(pool[i]));
    if (++i == pool.size()) i = 0;
  }
}

/// One more untimed pass over the pool, reporting the share of the grid's
/// fine tiles the walk evaluated per selection.
template <typename Select>
void report_eval_tile_share(benchmark::State& state, const Sweeps& pool,
                            const CorrelationWorkspace& ws, const ResponseMatrix& matrix,
                            Select select) {
  const WalkStats before = ws.walk_stats();
  for (const auto& sweep : pool) benchmark::DoNotOptimize(select(sweep));
  const double grid_tiles = static_cast<double>(matrix.tiles().fine_tiles);
  const double evaluated =
      static_cast<double>(ws.walk_stats().fine_evaluated - before.fine_evaluated);
  state.counters["eval_tile_share"] =
      evaluated / (grid_tiles * static_cast<double>(pool.size()));
}

CorrelationEngine default_grid_engine() {
  return CorrelationEngine(shared_table(), AngularGrid{make_axis(-90.0, 90.0, 1.5),
                                                       make_axis(0.0, 32.0, 2.0)});
}

void BM_CssSelect(benchmark::State& state) {
  // One selection with a warm caller-owned workspace (the LinkSession
  // steady state): probe collection, the branch-and-bound walk and the
  // Eq. 4 sector mapping.
  const CompressiveSectorSelector css(shared_table());
  CorrelationWorkspace ws;
  cycle_pool(state, sweep_pool(static_cast<std::size_t>(state.range(0))),
             [&](const auto& sweep) { return css.select(sweep, ws); });
}
BENCHMARK(BM_CssSelect)->Arg(6)->Arg(14)->Arg(24)->Arg(34);

void BM_CssSelectConfidence(benchmark::State& state) {
  // BM_CssSelect in degradation mode: the walk's rival pass adds the
  // peak-to-second-peak confidence.
  CssConfig config;
  config.compute_confidence = true;
  const CompressiveSectorSelector css(shared_table(), config);
  CorrelationWorkspace ws;
  const Sweeps& pool = sweep_pool(static_cast<std::size_t>(state.range(0)));
  const auto select = [&](const auto& sweep) { return css.select(sweep, ws); };
  cycle_pool(state, pool, select);
  report_eval_tile_share(state, pool, ws, css.assets()->engine().response_matrix(), select);
}
BENCHMARK(BM_CssSelectConfidence)->Arg(14);

void BM_CssSelectGridResolution(benchmark::State& state) {
  // Cost vs search-grid resolution (azimuth step in tenths of a degree).
  const double step = static_cast<double>(state.range(0)) / 10.0;
  CssConfig config;
  config.search_grid.azimuth = make_axis(-90.0, 90.0, step);
  const CompressiveSectorSelector css(shared_table(), config);
  CorrelationWorkspace ws;
  cycle_pool(state, sweep_pool(14),
             [&](const auto& sweep) { return css.select(sweep, ws); });
}
BENCHMARK(BM_CssSelectGridResolution)->Arg(5)->Arg(15)->Arg(30)->Arg(60);

void BM_CombinedArgmax(benchmark::State& state) {
  // The selection hot path: branch-and-bound Eq. 5 peak with a warm
  // caller-owned workspace (the LinkSession steady state). Compare against
  // BM_CorrelationSurface at the same probe count for the pruning gain --
  // both return the identical peak.
  const CorrelationEngine engine = default_grid_engine();
  CorrelationWorkspace ws;
  const Sweeps& pool = sweep_pool(static_cast<std::size_t>(state.range(0)));
  const auto select = [&](const auto& sweep) {
    return engine.combined_argmax(sweep, ws);
  };
  cycle_pool(state, pool, select);
  report_eval_tile_share(state, pool, ws, engine.response_matrix(), select);
}
BENCHMARK(BM_CombinedArgmax)->Arg(6)->Arg(10)->Arg(14)->Arg(20)->Arg(34);

void BM_CombinedArgmaxMiss(benchmark::State& state) {
  // BM_CombinedArgmax where every selection misses the panel cache -- the
  // paper's fresh random subset per training, and the replay's steady
  // state: the cache is first filled to its cap with other sequences, so
  // each pool sweep builds its panel and drops it again. miss_share
  // reports the panel builds per selection (1 when every one missed).
  const CorrelationEngine engine = default_grid_engine();
  const ResponseMatrix& matrix = engine.response_matrix();
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  // 600 shuffled sequences: more than the cache's cap of 512, and none
  // equal to a pool sweep's reading order but by a 1-in-35!/(35-m)! draw.
  std::mt19937_64 rng(1234);
  std::vector<int> filler(matrix.slots());
  std::iota(filler.begin(), filler.end(), 0);
  for (int i = 0; i < 600; ++i) {
    std::shuffle(filler.begin(), filler.end(), rng);
    (void)matrix.panel(std::span<const int>(filler.data(), m));
  }
  CorrelationWorkspace ws;
  const Sweeps& pool = sweep_pool(m);
  const std::uint64_t misses_before = matrix.cache_stats().misses;
  std::uint64_t calls = 0;
  cycle_pool(state, pool, [&](const auto& sweep) {
    ++calls;
    return engine.combined_argmax(sweep, ws);
  });
  const double builds = static_cast<double>(matrix.cache_stats().misses - misses_before);
  state.counters["miss_share"] = builds / static_cast<double>(calls);
}
BENCHMARK(BM_CombinedArgmaxMiss)->Arg(6)->Arg(14)->Arg(24)->Arg(34);

void BM_PanelBuild(benchmark::State& state) {
  // One panel build alone, the part of BM_CombinedArgmaxMiss that depends
  // on M only: the cache is filled past its cap, so every lookup of a new
  // slot sequence builds its panel and drops it. A build is one
  // core/tile_dots.hpp tile_stats call per fine tile, writing the tile's
  // root norms and shares in place, plus the coarse rows.
  // The A/B tool for the statistics kernel; miss_share reads 1 when
  // every lookup built.
  const CorrelationEngine engine = default_grid_engine();
  const ResponseMatrix& matrix = engine.response_matrix();
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  std::mt19937_64 rng(1234);
  std::vector<int> order(matrix.slots());
  std::iota(order.begin(), order.end(), 0);
  for (int i = 0; i < 600; ++i) {
    std::shuffle(order.begin(), order.end(), rng);
    (void)matrix.panel(std::span<const int>(order.data(), m));
  }
  std::vector<std::vector<int>> pool(64);
  for (std::vector<int>& seq : pool) {
    std::shuffle(order.begin(), order.end(), rng);
    seq.assign(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(m));
  }
  const std::uint64_t misses_before = matrix.cache_stats().misses;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(matrix.panel(pool[i]));
    i = (i + 1) % pool.size();
  }
  const double builds = static_cast<double>(matrix.cache_stats().misses - misses_before);
  state.counters["miss_share"] = builds / static_cast<double>(state.iterations());
}
BENCHMARK(BM_PanelBuild)->Arg(6)->Arg(14)->Arg(24)->Arg(34);

void BM_CollectProbes(benchmark::State& state) {
  // The first stage of a selection alone: map each reading's sector ID to
  // its matrix slot and convert SNR and RSSI to the correlation domain,
  // into a warm caller-owned ProbeVectors.
  const CorrelationEngine engine = default_grid_engine();
  ProbeVectors probes;
  cycle_pool(state, sweep_pool(static_cast<std::size_t>(state.range(0))),
             [&](const auto& sweep) {
               engine.collect_probes_into(sweep, true, true, probes);
               return probes.rssi.back();
             });
}
BENCHMARK(BM_CollectProbes)->Arg(14);

void BM_SectorMapping(benchmark::State& state) {
  // The last stage of a selection alone: Eq. 4 at a search-grid point over
  // the 34 transmit candidates, read from the response matrix's per-point
  // ranking. Each iteration takes the next grid point of a stride that
  // visits them all.
  const CompressiveSectorSelector css(shared_table());
  const ResponseMatrix& matrix = css.assets()->engine().response_matrix();
  const std::vector<int>& candidates = css.assets()->tx_candidates();
  const std::size_t points = matrix.points();
  std::size_t g = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(matrix.best_sector_at(g, candidates));
    g += 97;  // coprime with the 121 x 17 default grid
    if (g >= points) g -= points;
  }
}
BENCHMARK(BM_SectorMapping);

void BM_CombinedArgmaxGridResolution(benchmark::State& state) {
  // Pruning gain vs grid density (azimuth step in tenths of a degree):
  // denser grids mean more points per tile below the bound, so the argmax
  // advantage over the full surface grows with resolution.
  const double step = static_cast<double>(state.range(0)) / 10.0;
  const CorrelationEngine engine(shared_table(),
                                 AngularGrid{make_axis(-90.0, 90.0, step),
                                             make_axis(0.0, 32.0, 2.0)});
  CorrelationWorkspace ws;
  cycle_pool(state, sweep_pool(14),
             [&](const auto& sweep) { return engine.combined_argmax(sweep, ws); });
}
BENCHMARK(BM_CombinedArgmaxGridResolution)->Arg(5)->Arg(15)->Arg(30)->Arg(60);

void BM_CombinedArgmaxScalarDispatch(benchmark::State& state) {
  // BM_CombinedArgmax/14 with the scalar tile kernel pinned: the spread
  // against the default-dispatch run is the SIMD speedup on this host
  // (zero on machines whose detected level is already scalar).
  set_simd_level_override(SimdLevel::kScalar);
  const CorrelationEngine engine = default_grid_engine();
  CorrelationWorkspace ws;
  cycle_pool(state, sweep_pool(14),
             [&](const auto& sweep) { return engine.combined_argmax(sweep, ws); });
  clear_simd_level_override();
}
BENCHMARK(BM_CombinedArgmaxScalarDispatch);

void BM_SswArgmax(benchmark::State& state) {
  cycle_pool(state, sweep_pool(34),
             [](const auto& sweep) { return sweep_select(sweep); });
}
BENCHMARK(BM_SswArgmax);

void BM_CorrelationSurface(benchmark::State& state) {
  const CorrelationEngine engine = default_grid_engine();
  cycle_pool(state, sweep_pool(static_cast<std::size_t>(state.range(0))),
             [&](const auto& sweep) { return engine.combined_surface(sweep); });
}
BENCHMARK(BM_CorrelationSurface)->Arg(6)->Arg(10)->Arg(14)->Arg(20)->Arg(34);

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
