// talon-cli: the command-line face of the library, mirroring how the
// talon-tools release is driven from the shell.
//
//   talon-cli measure   [--output patterns.csv] [--full] [--seed N]
//   talon-cli summary   <patterns.csv>
//   talon-cli train     [--env lab|conference|anechoic] [--head DEG]
//                       [--probes M] [--patterns patterns.csv] [--seed N]
//   talon-cli record    [--env lab|conference] [--output records.csv]
//                       [--sweeps N] [--az-step DEG] [--seed N]
//   talon-cli analyze   <error|quality> --records records.csv
//                       [--patterns patterns.csv] [--probes M]
//   talon-cli dense     [--links K] [--rounds N] [--rate TRAININGS_PER_S]
//                       [--probes M] [--patterns patterns.csv] [--seed N]
//   talon-cli mesh      [--aps K] [--stas N] [--channels C] [--seconds S]
//                       [--rate TRAININGS_PER_S] [--churn P] [--seed N]
//   talon-cli serve     [--links K] [--rounds N] [--probes M] [--queue CAP]
//                       [--patterns patterns.csv] [--swap]
//                       [--snapshot out.bin] [--restore in.bin] [--seed N]
//   talon-cli table1
//   talon-cli timing    [--probes M]
//
// `measure` runs the anechoic campaign and writes the pattern CSV;
// `summary` inspects a pattern file; `train` runs one compressive
// selection round in a venue (measuring patterns on the fly when no file
// is given); `record`/`analyze` split data collection from offline
// analysis like the paper's router-plus-MATLAB workflow; `dense` runs the
// multi-link NetworkSimulator (K pairs training under contention on one
// shared channel); `mesh` runs the city-scale controller/minion
// MeshSimulator and prints the network-wide lifecycle ledger; `serve`
// runs the asynchronous ServeDaemon (MPSC ingest + worker fan-out) over
// K headless links, optionally hot-swapping a recalibrated table
// mid-stream and snapshotting/restoring session state, then prints the
// telemetry scrape; `table1` and `timing` print the protocol constants.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/common/args.hpp"
#include "src/common/error.hpp"
#include "src/core/css.hpp"
#include "src/core/selector.hpp"
#include "src/core/ssw.hpp"
#include "src/core/subset_policy.hpp"
#include "src/driver/serve.hpp"
#include "src/driver/snapshot.hpp"
#include "src/mac/monitor.hpp"
#include "src/mac/timing.hpp"
#include "src/measure/campaign.hpp"
#include "src/sim/mesh.hpp"
#include "src/sim/network.hpp"
#include "src/sim/records_io.hpp"
#include "src/sim/scenario.hpp"

namespace {

using namespace talon;

void print_usage() {
  std::printf(
      "usage: talon-cli <command> [options]\n"
      "  measure  [--output patterns.csv] [--full] [--seed N]\n"
      "  summary  <patterns.csv>\n"
      "  train    [--env lab|conference|anechoic] [--head DEG] [--probes M]\n"
      "           [--patterns patterns.csv] [--seed N]\n"
      "  record   [--env lab|conference] [--output records.csv] [--sweeps N]\n"
      "           [--az-step DEG] [--seed N]\n"
      "  analyze  <error|quality> --records records.csv\n"
      "           [--patterns patterns.csv] [--probes M] [--seed N]\n"
      "  dense    [--links K] [--rounds N] [--rate TRAININGS_PER_S]\n"
      "           [--probes M] [--patterns patterns.csv] [--seed N]\n"
      "  mesh     [--aps K] [--stas N] [--channels C] [--seconds S]\n"
      "           [--rate TRAININGS_PER_S] [--churn P] [--seed N]\n"
      "  serve    [--links K] [--rounds N] [--probes M] [--queue CAP]\n"
      "           [--patterns patterns.csv] [--swap] [--snapshot out.bin]\n"
      "           [--restore in.bin] [--seed N]\n"
      "  table1\n"
      "  timing   [--probes M]\n"
      "all commands accept --threads N (default: hardware concurrency,\n"
      "TALON_THREADS overrides) for the parallel replay engine\n");
}

PatternTable measure_patterns(std::uint64_t seed, bool full) {
  Scenario chamber = make_anechoic_scenario(seed);
  CampaignConfig config;
  if (full) {
    config.azimuth = make_axis(-90.0, 90.0, 1.8);
    config.elevation = make_axis(0.0, 32.4, 3.6);
    config.repetitions = 3;
  } else {
    config.azimuth = make_axis(-90.0, 90.0, 3.6);
    config.elevation = make_axis(0.0, 32.4, 5.4);
    config.repetitions = 2;
  }
  return measure_sector_patterns(chamber, config).table;
}

int cmd_measure(const ArgParser& args) {
  const std::string output = args.option_or("--output", "patterns.csv");
  const auto seed = static_cast<std::uint64_t>(args.integer_or("--seed", 42));
  const PatternTable table = measure_patterns(seed, args.has_flag("--full"));
  write_csv_file(output, table.to_csv());
  std::printf("measured %zu sectors on a %zux%zu grid -> %s\n", table.size(),
              table.grid().azimuth.count, table.grid().elevation.count,
              output.c_str());
  return 0;
}

int cmd_summary(const ArgParser& args) {
  if (args.positionals().size() < 2) {
    std::fprintf(stderr, "summary: missing <patterns.csv>\n");
    return 2;
  }
  const PatternTable table =
      PatternTable::from_csv(read_csv_file(args.positionals()[1]));
  std::printf("%zu sectors, azimuth %zu x elevation %zu grid\n", table.size(),
              table.grid().azimuth.count, table.grid().elevation.count);
  std::printf("sector | peak [dB] | peak az | peak el\n");
  for (int id : table.ids()) {
    const auto peak = table.pattern(id).peak();
    std::printf("%6d |  %6.2f   | %6.1f  | %6.1f\n", id, peak.value,
                peak.direction.azimuth_deg, peak.direction.elevation_deg);
  }
  return 0;
}

int cmd_train(const ArgParser& args) {
  const std::string env = args.option_or("--env", "lab");
  const auto seed = static_cast<std::uint64_t>(args.integer_or("--seed", 42));
  const double head = args.number_or("--head", 20.0);
  const auto probes = static_cast<std::size_t>(args.integer_or("--probes", 14));

  Scenario scenario = env == "conference"  ? make_conference_scenario(seed)
                      : env == "anechoic" ? make_anechoic_scenario(seed)
                                          : make_lab_scenario(seed);
  scenario.set_head(head, 0.0);

  PatternTable table;
  if (const auto path = args.option("--patterns")) {
    table = PatternTable::from_csv(read_csv_file(*path));
  } else {
    std::printf("no --patterns file: measuring (quick campaign)...\n");
    table = measure_patterns(seed, false);
  }
  const CompressiveSectorSelector css(table);
  CssSelector selector(css);

  LinkSimulator link = scenario.make_link(Rng(seed + 1));
  RandomSubsetPolicy policy;
  Rng rng(seed + 2);
  const auto subset = policy.choose(talon_tx_sector_ids(), probes, rng);
  const SweepOutcome sweep = link.transmit_sweep(*scenario.dut, *scenario.peer,
                                                 probing_burst_schedule(subset));
  const CssResult result = selector.select(sweep.measurement.readings);
  const SweepOutcome full = link.transmit_sweep(*scenario.dut, *scenario.peer,
                                                sweep_burst_schedule());
  const SswSelection ssw = sweep_select(full.measurement.readings);

  std::printf("venue %s, head %.1f deg, %zu probes (%zu decoded)\n", env.c_str(), head,
              probes, sweep.measurement.readings.size());
  if (result.valid && result.estimated_direction) {
    std::printf("CSS: sector %d, estimated path az %.1f el %.1f (peak %.3f)\n",
                result.sector_id, result.estimated_direction->azimuth_deg,
                result.estimated_direction->elevation_deg, result.correlation_peak);
  } else {
    std::printf("CSS: no valid selection this round\n");
  }
  std::printf("SSW: sector %d at %.2f dB reported\n", ssw.sector_id, ssw.snr_db);
  const double css_true = link.true_snr_db(*scenario.dut, result.sector_id,
                                           *scenario.peer, kRxQuasiOmniSectorId);
  const double ssw_true = link.true_snr_db(*scenario.dut, ssw.sector_id,
                                           *scenario.peer, kRxQuasiOmniSectorId);
  std::printf("true SNR: CSS %.2f dB, SSW %.2f dB\n", css_true, ssw_true);
  return 0;
}

int cmd_record(const ArgParser& args) {
  const std::string env = args.option_or("--env", "conference");
  const std::string output = args.option_or("--output", "records.csv");
  const auto seed = static_cast<std::uint64_t>(args.integer_or("--seed", 42));
  Scenario scenario =
      env == "lab" ? make_lab_scenario(seed) : make_conference_scenario(seed);

  RecordingConfig config;
  const double az_step = args.number_or("--az-step", 5.0);
  for (double az = -60.0; az <= 60.0 + 1e-9; az += az_step) {
    config.head_azimuths_deg.push_back(az);
  }
  config.head_tilts_deg = {0.0};
  config.sweeps_per_pose = static_cast<std::size_t>(args.integer_or("--sweeps", 10));
  config.seed = seed + 100;
  const auto records = record_sweeps(scenario, config);
  write_csv_file(output, records_to_csv(records));
  std::printf("recorded %zu sweeps over %zu poses in the %s -> %s\n", records.size(),
              records.size() / config.sweeps_per_pose, env.c_str(), output.c_str());
  return 0;
}

int cmd_analyze(const ArgParser& args) {
  if (args.positionals().size() < 2) {
    std::fprintf(stderr, "analyze: missing <error|quality>\n");
    return 2;
  }
  const std::string what = args.positionals()[1];
  const auto records_path = args.option("--records");
  if (!records_path) {
    std::fprintf(stderr, "analyze: --records is required\n");
    return 2;
  }
  const auto records = records_from_csv(read_csv_file(*records_path));
  const auto seed = static_cast<std::uint64_t>(args.integer_or("--seed", 42));

  PatternTable table;
  if (const auto path = args.option("--patterns")) {
    table = PatternTable::from_csv(read_csv_file(*path));
  } else {
    std::printf("no --patterns file: measuring (quick campaign)...\n");
    table = measure_patterns(seed, false);
  }
  const CompressiveSectorSelector css(table);
  CssSelector selector(css);
  RandomSubsetPolicy policy;
  const std::vector<std::size_t> probes{
      static_cast<std::size_t>(args.integer_or("--probes", 14))};

  if (what == "error") {
    const auto rows = estimation_error_analysis(records, selector, probes, policy, seed);
    std::printf("probes | az median | az p99.5 | el median | el p99.5 | samples\n");
    for (const auto& row : rows) {
      std::printf("%6zu |  %6.2f   |  %6.2f  |  %6.2f   |  %6.2f  | %6zu\n",
                  row.probes, row.azimuth_error.median,
                  row.azimuth_error.whisker_high, row.elevation_error.median,
                  row.elevation_error.whisker_high, row.samples);
    }
    return 0;
  }
  if (what == "quality") {
    const auto rows = selection_quality_analysis(records, selector, probes, policy, seed);
    std::printf("probes | CSS stability | SSW stability | CSS loss | SSW loss\n");
    for (const auto& row : rows) {
      std::printf("%6zu |     %.3f     |     %.3f     |  %5.2f   |  %5.2f\n",
                  row.probes, row.css_stability, row.ssw_stability,
                  row.css_snr_loss_db, row.ssw_snr_loss_db);
    }
    return 0;
  }
  std::fprintf(stderr, "analyze: unknown analysis '%s'\n", what.c_str());
  return 2;
}

int cmd_dense(const ArgParser& args) {
  const auto seed = static_cast<std::uint64_t>(args.integer_or("--seed", 42));
  const long links_arg = args.integer_or("--links", 4);
  const long rounds_arg = args.integer_or("--rounds", 10);
  const double rate = args.number_or("--rate", 10.0);
  const auto probes = static_cast<std::size_t>(args.integer_or("--probes", 14));

  // Validate before the (slow) pattern campaign, so a typo'd flag fails
  // in milliseconds with a message instead of a precondition abort later
  // (and a negative --rounds never wraps through the size_t cast).
  if (links_arg <= 0) {
    std::fprintf(stderr, "dense: --links must be positive (got %ld)\n",
                 links_arg);
    return 2;
  }
  if (rounds_arg <= 0) {
    std::fprintf(stderr, "dense: --rounds must be positive (got %ld)\n",
                 rounds_arg);
    return 2;
  }
  if (rate <= 0.0) {
    std::fprintf(stderr,
                 "dense: --rate (trainings per second) must be positive "
                 "(got %g)\n",
                 rate);
    return 2;
  }
  const int links = static_cast<int>(links_arg);
  const auto rounds = static_cast<std::size_t>(rounds_arg);

  PatternTable table;
  if (const auto path = args.option("--patterns")) {
    table = PatternTable::from_csv(read_csv_file(*path));
  } else {
    std::printf("no --patterns file: measuring (quick campaign)...\n");
    table = measure_patterns(seed, false);
  }
  const CssConfig defaults;
  const auto assets = PatternAssetsRegistry::global().get_or_create(
      std::move(table), defaults.search_grid, defaults.domain);

  NetworkConfig config;
  config.links = links;
  config.rounds = rounds;
  config.trainings_per_second = rate;
  config.session.probes = probes;
  config.seed = seed;
  const auto room = make_conference_room();
  NetworkSimulator sim(config, *room, assets);
  const NetworkRunResult result = sim.run();

  std::printf("%d pairs, %zu rounds, %.1f trainings/s per pair, %zu probes\n\n",
              links, rounds, rate, probes);
  std::printf("round | busy [ms] | deferred | worst defer [ms] | selections\n");
  std::printf("------+-----------+----------+------------------+-----------\n");
  for (std::size_t r = 0; r < result.rounds.size(); ++r) {
    const NetworkRound& round = result.rounds[r];
    int selections = 0;
    for (const LinkRoundOutcome& link : round.links) selections += link.selected;
    std::printf("%5zu | %9.3f | %8d | %16.3f | %6d/%zu\n", r,
                round.busy_time_s * 1000.0, round.deferred, round.worst_defer_ms,
                selections, round.links.size());
  }
  std::printf("\ntraining airtime %.2f%% of the channel, %d/%d trainings deferred "
              "(worst %.2f ms)\n",
              result.training_airtime_share * 100.0, result.deferred_trainings,
              result.total_trainings, result.worst_defer_ms);
  std::printf("mean selected true SNR %.2f dB -> %.1f Mbps goodput per link\n",
              result.mean_selected_snr_db, result.goodput_per_link_mbps);
  return 0;
}

int cmd_mesh(const ArgParser& args) {
  const auto seed = static_cast<std::uint64_t>(args.integer_or("--seed", 42));
  const long aps_arg = args.integer_or("--aps", 64);
  const long stas_arg = args.integer_or("--stas", 4);
  const long channels_arg = args.integer_or("--channels", 8);
  const double seconds = args.number_or("--seconds", 5.0);
  const double rate = args.number_or("--rate", 10.0);
  const double churn = args.number_or("--churn", 0.002);
  const auto probes = static_cast<std::size_t>(args.integer_or("--probes", 14));

  // Validate like `dense`: fail in milliseconds on stderr instead of a
  // precondition abort from deep inside the simulator (and never wrap a
  // negative count through a cast).
  if (aps_arg <= 0) {
    std::fprintf(stderr, "mesh: --aps must be positive (got %ld)\n", aps_arg);
    return 2;
  }
  if (stas_arg <= 0) {
    std::fprintf(stderr, "mesh: --stas (links per AP) must be positive (got %ld)\n",
                 stas_arg);
    return 2;
  }
  if (channels_arg <= 0) {
    std::fprintf(stderr, "mesh: --channels must be positive (got %ld)\n",
                 channels_arg);
    return 2;
  }
  if (seconds <= 0.0) {
    std::fprintf(stderr, "mesh: --seconds must be positive (got %g)\n", seconds);
    return 2;
  }
  if (rate <= 0.0) {
    std::fprintf(stderr,
                 "mesh: --rate (trainings per second) must be positive (got %g)\n",
                 rate);
    return 2;
  }
  if (churn < 0.0 || churn > 1.0) {
    std::fprintf(stderr,
                 "mesh: --churn must be a probability in [0, 1] (got %g)\n",
                 churn);
    return 2;
  }

  MeshConfig config;
  config.aps = static_cast<int>(aps_arg);
  config.stas_per_ap = static_cast<int>(stas_arg);
  config.channels = static_cast<int>(channels_arg);
  config.simulated_seconds = seconds;
  config.trainings_per_second = rate;
  config.churn_probability = churn;
  config.probes = probes;
  config.seed = seed;
  MeshSimulator sim(config);
  const MeshRunResult result = sim.run();

  std::printf("%d APs x %d STAs = %d links on %d channels, %.1f s simulated\n\n",
              config.aps, config.stas_per_ap, sim.link_count(), config.channels,
              result.simulated_s);
  std::printf("ignition: %zu/%d links up (mean %.3f s, worst %.3f s), "
              "%llu re-associations\n",
              result.ignited, sim.link_count(), result.mean_ignition_s,
              result.max_ignition_s,
              static_cast<unsigned long long>(result.reassociations));
  std::printf("training: %llu total, %llu deferred (worst %.2f ms)\n",
              static_cast<unsigned long long>(result.total_trainings),
              static_cast<unsigned long long>(result.deferred_trainings),
              result.worst_defer_ms);
  std::printf("mean link SNR %.2f dB -> aggregate goodput %.2f Gbps\n\n",
              result.mean_snr_db, result.aggregate_goodput_mbps / 1000.0);

  const LifecycleStats& lc = result.lifecycle_totals;
  std::printf("lifecycle ledger (all links):\n");
  std::printf("  transitions: %llu ignitions, %llu acquisitions, %llu drops, "
              "%llu trips, %llu recoveries\n",
              static_cast<unsigned long long>(lc.ignitions),
              static_cast<unsigned long long>(lc.acquisitions),
              static_cast<unsigned long long>(lc.drops),
              static_cast<unsigned long long>(lc.trips),
              static_cast<unsigned long long>(lc.recoveries));
  const double total_time = lc.up_time + lc.unstable_time +
                            lc.acquisition_time + lc.down_time;
  if (total_time > 0.0) {
    std::printf("  time in state: up %.1f%%, unstable %.1f%%, "
                "acquisition %.1f%%, down %.1f%%\n",
                100.0 * lc.up_time / total_time,
                100.0 * lc.unstable_time / total_time,
                100.0 * lc.acquisition_time / total_time,
                100.0 * lc.down_time / total_time);
  }
  return 0;
}

int cmd_serve(const ArgParser& args) {
  const auto seed = static_cast<std::uint64_t>(args.integer_or("--seed", 42));
  const long links_arg = args.integer_or("--links", 8);
  const long rounds_arg = args.integer_or("--rounds", 20);
  const long queue_arg = args.integer_or("--queue", 4096);
  const auto probes = static_cast<std::size_t>(args.integer_or("--probes", 14));

  // Validate like `dense`/`mesh`: fail on stderr in milliseconds before
  // the (slow) pattern campaign or a precondition abort deep inside.
  if (links_arg <= 0) {
    std::fprintf(stderr, "serve: --links must be positive (got %ld)\n",
                 links_arg);
    return 2;
  }
  if (rounds_arg <= 0) {
    std::fprintf(stderr, "serve: --rounds must be positive (got %ld)\n",
                 rounds_arg);
    return 2;
  }
  if (queue_arg <= 0) {
    std::fprintf(stderr, "serve: --queue must be positive (got %ld)\n",
                 queue_arg);
    return 2;
  }
  const int links = static_cast<int>(links_arg);
  const auto rounds = static_cast<std::uint64_t>(rounds_arg);

  PatternTable table;
  if (const auto path = args.option("--patterns")) {
    table = PatternTable::from_csv(read_csv_file(*path));
  } else {
    std::printf("no --patterns file: measuring (quick campaign)...\n");
    table = measure_patterns(seed, false);
  }
  if (probes > table.size()) {
    std::fprintf(stderr, "serve: --probes %zu exceeds the %zu-sector table\n",
                 probes, table.size());
    return 2;
  }
  const CssConfig defaults;
  const auto assets = PatternAssetsRegistry::global().get_or_create(
      std::move(table), defaults.search_grid, defaults.domain);

  CssDaemonConfig session;
  session.probes = probes;
  session.degradation.enabled = true;
  ServeConfig serve_config;
  serve_config.queue_capacity = static_cast<std::size_t>(queue_arg);
  ServeDaemon serve(assets, session, serve_config);
  for (int id = 0; id < links; ++id) {
    serve.add_link(id, Rng(substream_seed(seed, streams::kNetworkSession,
                                          static_cast<std::uint64_t>(id))));
  }
  if (const auto path = args.option("--restore")) {
    std::ifstream in(*path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "serve: cannot read snapshot '%s'\n", path->c_str());
      return 2;
    }
    const std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    restore_sessions(serve.daemon(), bytes);
    std::printf("restored %d sessions from %s\n", links, path->c_str());
  }

  // Deterministic report stream: the same substreams the serve tests draw
  // from, so a run is reproducible from its seed.
  const PatternTable& patterns = assets->patterns();
  const std::vector<int> ids = patterns.ids();
  auto make_report = [&](int link, std::uint64_t round) {
    Rng rng(substream_seed(seed, streams::kServeReport,
                           static_cast<std::uint64_t>(link), round));
    const std::vector<int> picks =
        rng.sample_without_replacement(static_cast<int>(ids.size()),
                                       static_cast<int>(probes));
    const Direction truth{rng.uniform(-55.0, 55.0), rng.uniform(0.0, 26.0)};
    std::vector<SectorReading> readings;
    readings.reserve(picks.size());
    for (int i : picks) {
      const int id = ids[static_cast<std::size_t>(i)];
      const double v = patterns.sample_db(id, truth) + rng.normal(0.3);
      readings.push_back(SectorReading{.sector_id = id, .snr_db = v, .rssi_dbm = v});
    }
    return readings;
  };

  serve.start();
  for (std::uint64_t r = 0; r < rounds; ++r) {
    if (args.has_flag("--swap") && r == rounds / 2) {
      // Recalibrated codebook (per-sector tilt) published mid-stream;
      // sessions rebind lazily, nothing drops.
      PatternTable warped;
      for (int id : patterns.ids()) {
        Grid2D pattern = patterns.pattern(id);
        for (double& v : pattern.values()) v += 0.5 * id / 32.0;
        warped.add(id, std::move(pattern));
      }
      serve.swap_assets(PatternAssetsRegistry::global().get_or_create(
          std::move(warped), defaults.search_grid, defaults.domain));
      std::printf("hot-swapped assets at round %llu (epoch %llu)\n",
                  static_cast<unsigned long long>(r),
                  static_cast<unsigned long long>(serve.assets_epoch()));
    }
    for (int id = 0; id < links; ++id) serve.submit(id, make_report(id, r));
  }
  serve.stop();
  serve.drain_all();

  std::printf("\n%d links x %llu rounds: %llu submitted, %llu processed, "
              "%llu rejected, %llu rebinds\n\n",
              links, static_cast<unsigned long long>(rounds),
              static_cast<unsigned long long>(serve.submitted()),
              static_cast<unsigned long long>(serve.processed()),
              static_cast<unsigned long long>(serve.rejected()),
              static_cast<unsigned long long>(serve.rebinds()));
  std::printf("%s", serve.scrape().c_str());

  if (const auto path = args.option("--snapshot")) {
    const std::vector<std::uint8_t> bytes = snapshot_sessions(serve.daemon());
    std::ofstream out(*path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out) {
      std::fprintf(stderr, "serve: cannot write snapshot '%s'\n", path->c_str());
      return 2;
    }
    std::printf("\nsnapshot: %zu bytes -> %s\n", bytes.size(), path->c_str());
  }
  return 0;
}

int cmd_table1() {
  Scenario s = make_anechoic_scenario(42);
  LinkSimulator link = s.make_link(Rng(1));
  MonitorCapture monitor;
  link.transmit_beacons(*s.dut, &monitor);
  link.transmit_sweep(*s.dut, *s.peer, sweep_burst_schedule(), &monitor);
  for (const FrameType type : {FrameType::kBeacon, FrameType::kSectorSweep}) {
    std::printf("%-7s", type == FrameType::kBeacon ? "Beacon" : "Sweep");
    const auto observed = monitor.cdown_to_sectors(type);
    for (int cdown = 34; cdown >= 0; --cdown) {
      const auto it = observed.find(cdown);
      if (it == observed.end()) {
        std::printf(" %3s", "-");
      } else {
        std::printf(" %3d", *it->second.begin());
      }
    }
    std::printf("\n");
  }
  return 0;
}

int cmd_timing(const ArgParser& args) {
  const auto probes = static_cast<int>(args.integer_or("--probes", 14));
  const TimingModel timing;
  std::printf("mutual training with %d probes: %.3f ms (full sweep %.3f ms, %.2fx)\n",
              probes, timing.mutual_training_time_ms(probes),
              timing.mutual_training_time_ms(kFullSweepProbes),
              timing.speedup_vs_full_sweep(probes));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage();
    return 2;
  }
  ArgParser args;
  args.add_option("--output");
  args.add_option("--seed");
  args.add_option("--env");
  args.add_option("--head");
  args.add_option("--probes");
  args.add_option("--patterns");
  args.add_option("--records");
  args.add_option("--sweeps");
  args.add_option("--az-step");
  args.add_option("--links");
  args.add_option("--rounds");
  args.add_option("--rate");
  args.add_option("--aps");
  args.add_option("--stas");
  args.add_option("--channels");
  args.add_option("--seconds");
  args.add_option("--churn");
  args.add_option("--queue");
  args.add_option("--snapshot");
  args.add_option("--restore");
  args.add_option("--threads");
  args.add_flag("--full");
  args.add_flag("--swap");
  try {
    args.parse(argc - 1, argv + 1);
    const int threads = apply_thread_count_option(args);
    std::printf("threads: %d\n", threads);
    const std::string command = args.positionals().empty() ? "" : args.positionals()[0];
    if (command == "measure") return cmd_measure(args);
    if (command == "summary") return cmd_summary(args);
    if (command == "train") return cmd_train(args);
    if (command == "record") return cmd_record(args);
    if (command == "analyze") return cmd_analyze(args);
    if (command == "dense") return cmd_dense(args);
    if (command == "mesh") return cmd_mesh(args);
    if (command == "serve") return cmd_serve(args);
    if (command == "table1") return cmd_table1();
    if (command == "timing") return cmd_timing(args);
    print_usage();
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "talon-cli: %s\n", e.what());
    return 1;
  }
}
