// The replay_figs workload: the offline Fig. 7/8/9 replay at the paper's
// resolution -- the researcher's path through sim/experiment and the
// kernel, with no serve layer.
#include <cstdio>
#include <cstring>

#include "perfbench/trace.hpp"
#include "src/antenna/codebook.hpp"
#include "src/core/css.hpp"
#include "src/core/selector.hpp"
#include "src/core/subset_policy.hpp"
#include "src/sim/experiment.hpp"
#include "src/sim/scenario.hpp"

namespace perfbench {

using namespace talon;

namespace {

constexpr int kThreads = 2;
/// Analysis seeds of the reference pass whose rows are frozen below.
constexpr std::uint64_t kRefErrorSeed = 4242;
constexpr std::uint64_t kRefQualitySeed = 4343;
/// FNV-1a digest of the reference pass's rows (every field's bit pattern).
/// The replay is bit-identical at any thread count and SIMD level, so
/// this changes only when the selections themselves change.
constexpr std::uint64_t kRefDigest = 0x8d19e10874bd1cadULL;
constexpr std::uint64_t kTagErrorSeed = 0x7065'0101;
constexpr std::uint64_t kTagQualitySeed = 0x7065'0102;
constexpr std::uint64_t kTagLayerSubset = 0x7065'0103;

std::vector<std::size_t> probe_counts() {
  std::vector<std::size_t> out;
  for (std::size_t m = 4; m <= 34; m += 2) out.push_back(m);
  return out;
}

/// Sec. 6.1's conference-room recording at the paper's 1.3 deg azimuth
/// resolution.
RecordingConfig conference_recording() {
  RecordingConfig config;
  for (double az = -60.0; az <= 60.0 + 1e-9; az += 1.3) {
    config.head_azimuths_deg.push_back(az);
  }
  config.head_tilts_deg = {0.0};
  config.sweeps_per_pose = 10;
  config.seed = 1002;
  return config;
}

struct ReplaySetup {
  std::vector<SweepRecord> records;
  std::unique_ptr<CompressiveSectorSelector> css;
  std::unique_ptr<CssSelector> selector;
  double measure_s{0.0};
  double record_s{0.0};
  double total_s{0.0};
};

/// The timed set-up: pattern campaign, recording, selector construction,
/// each in CPU time of the calling thread (the set-up is single-threaded).
ReplaySetup replay_setup() {
  ReplaySetup s;
  const double t0 = thread_cpu_s();
  PatternTable table = measure_standard_table();
  const double t1 = thread_cpu_s();
  Scenario conference = make_conference_scenario(/*seed=*/42);
  s.records = record_sweeps(conference, conference_recording());
  const double t2 = thread_cpu_s();
  s.css = std::make_unique<CompressiveSectorSelector>(std::move(table));
  s.selector = std::make_unique<CssSelector>(*s.css);
  s.measure_s = t1 - t0;
  s.record_s = t2 - t1;
  s.total_s = thread_cpu_s() - t0;
  return s;
}

struct Rows {
  std::vector<EstimationErrorRow> error;
  std::vector<SelectionQualityRow> quality;
};

class Fnv {
 public:
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add_bits(bits);
  }
  void add_bits(std::uint64_t bits) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (bits >> (8 * i)) & 0xFF;
      hash_ *= 0x100000001B3ULL;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_{0xCBF29CE484222325ULL};
};

std::uint64_t digest(const Rows& rows) {
  Fnv h;
  for (const EstimationErrorRow& r : rows.error) {
    h.add_bits(r.probes);
    h.add_bits(r.samples);
    for (const BoxStats* b : {&r.azimuth_error, &r.elevation_error}) {
      h.add(b->median);
      h.add(b->q25);
      h.add(b->q75);
      h.add(b->whisker_low);
      h.add(b->whisker_high);
    }
  }
  for (const SelectionQualityRow& r : rows.quality) {
    h.add_bits(r.probes);
    h.add(r.css_stability);
    h.add(r.ssw_stability);
    h.add(r.css_snr_loss_db);
    h.add(r.ssw_snr_loss_db);
  }
  return h.value();
}

/// CPU time of the executor's threads per analysis (no other thread of the
/// process runs during a pass).
struct PassTimes {
  double error_s{0.0};
  double quality_s{0.0};
};

Rows replay_pass(ReplaySetup& setup, std::uint64_t error_seed, std::uint64_t quality_seed,
                 PassTimes* times = nullptr) {
  const std::vector<std::size_t> counts = probe_counts();
  const RandomSubsetPolicy policy;
  const ReplayOptions options{.threads = kThreads};
  Rows rows;
  const double t0 = process_cpu_s();
  rows.error = estimation_error_analysis(setup.records, *setup.selector, counts, policy,
                                         error_seed, options);
  const double t1 = process_cpu_s();
  rows.quality = selection_quality_analysis(setup.records, *setup.selector, counts,
                                            policy, quality_seed, options);
  if (times != nullptr) {
    times->error_s = t1 - t0;
    times->quality_s = process_cpu_s() - t1;
  }
  return rows;
}

/// CSS selections one pass performs: every record at every probe count,
/// once per analysis.
double selections_per_pass(const ReplaySetup& setup) {
  return static_cast<double>(2 * setup.records.size() * probe_counts().size());
}

bool rows_complete(const Rows& rows) {
  const std::size_t n = probe_counts().size();
  if (rows.error.size() != n || rows.quality.size() != n) return false;
  for (const EstimationErrorRow& r : rows.error) {
    if (r.samples == 0) return false;
  }
  return true;
}

}  // namespace

void run_replay(const Options& options, Outcome& outcome) {
  ReplaySetup setup = replay_setup();
  std::vector<double> setup_s{setup.total_s};
  // Further set-ups run between the timed passes, so setup_s is a median
  // over the host phases of the whole run. While the kept set-up is alive
  // a throwaway one's selector finds the response matrix in the assets
  // registry, as a second selector of a running process would (the matrix
  // build is ~1% of a set-up).

  // Reference pass (untimed): the frozen rows.
  const std::uint64_t ref = digest(replay_pass(setup, kRefErrorSeed, kRefQualitySeed));
  std::fprintf(stderr, "perfbench: replay reference digest 0x%016llx\n",
               static_cast<unsigned long long>(ref));
  outcome.check(ref == kRefDigest, "replay rows match the committed digest");

  // Timed passes on seed-derived subsets until the budget is spent; the
  // last pass repeats the first one's seeds and must reproduce its rows.
  std::vector<double> pass_s;
  std::uint64_t first_digest = 0;
  const std::int64_t start = now_ns();
  for (std::uint64_t i = 0;; ++i) {
    const bool last = elapsed_s(start) >= options.seconds - 2.0 && i >= 2;
    const std::uint64_t cell = last ? 0 : i;
    PassTimes times;
    const Rows rows = replay_pass(setup, substream_seed(options.seed, kTagErrorSeed, cell),
                                  substream_seed(options.seed, kTagQualitySeed, cell), &times);
    pass_s.push_back(times.error_s + times.quality_s);
    outcome.check(rows_complete(rows), "replay pass produced every row");
    if (i == 0) first_digest = digest(rows);
    if (last) {
      outcome.check(digest(rows) == first_digest, "replay pass is reproducible");
      break;
    }
    setup_s.push_back(replay_setup().total_s);
  }
  const double rss = peak_rss_mib();
  const double per_pass = selections_per_pass(setup);
  std::vector<double> rates;
  for (double s : pass_s) rates.push_back(per_pass / s);

  outcome.metric("setup_s", median(setup_s), "s");
  outcome.metric("replay_sel_per_s", median(rates), "1/s");
  // The replay has no offered load, so its capacity is its selection rate:
  // the same number, carrying no signal of its own.
  outcome.metric("capacity_rps", median(rates), "1/s");
  outcome.metric("peak_rss_mib", rss, "MiB");
}

void run_replay_traced(const Options& options, Outcome& outcome) {
  Tracer tracer;
  ReplaySetup setup;
  {
    Scoped span(tracer, "replay.setup");
    setup = replay_setup();
  }
  outcome.metric("campaign.measure_s", setup.measure_s, "s");
  outcome.metric("campaign.record_s", setup.record_s, "s");

  PassTimes times;
  {
    Scoped span(tracer, "replay.pass");
    const Rows rows = replay_pass(setup, substream_seed(options.seed, kTagErrorSeed, 0),
                                  substream_seed(options.seed, kTagQualitySeed, 0), &times);
    outcome.check(rows_complete(rows), "replay pass produced every row");
  }
  outcome.metric("replay.error_s", times.error_s, "s");
  outcome.metric("replay.quality_s", times.quality_s, "s");
  outcome.metric("replay.selections", selections_per_pass(setup), "count");

  // Per-call layers on the same inputs: for every probe count and every
  // fourth pose, one seeded subset replayed against the pose's sweeps --
  // the unit the analyses' cells are built from.
  const CompressiveSectorSelector& css = *setup.css;
  const CorrelationEngine& engine = css.assets()->engine();
  const std::vector<int>& tx = talon_tx_sector_ids();
  const RandomSubsetPolicy policy;
  const std::size_t sweeps = conference_recording().sweeps_per_pose;
  std::vector<std::vector<SectorReading>> cells_flat;
  std::vector<std::size_t> cell_start;
  for (std::size_t m : probe_counts()) {
    for (std::size_t pose = 0; pose * sweeps < setup.records.size(); pose += 4) {
      Rng rng(substream_seed(options.seed, kTagLayerSubset, m, pose));
      const std::vector<int> subset = policy.choose(tx, m, rng);
      cell_start.push_back(cells_flat.size());
      for (std::size_t s = 0; s < sweeps; ++s) {
        const SweepRecord& record = setup.records[pose * sweeps + s];
        std::vector<SectorReading> readings;
        for (int id : subset) {
          if (const SectorReading* r = record.measurement.find(id)) readings.push_back(*r);
        }
        if (engine.usable_probe_count(readings) >= css.config().min_probes) {
          cells_flat.push_back(std::move(readings));
        }
      }
    }
  }
  cell_start.push_back(cells_flat.size());
  const double n = static_cast<double>(cells_flat.size());

  // css.select, with and without spans (the tracing overhead).
  double untraced_s = 0.0;
  {
    CorrelationWorkspace ws;
    const std::int64_t t0 = now_ns();
    for (const auto& r : cells_flat) (void)css.select(r, ws);
    untraced_s = elapsed_s(t0);
  }
  std::uint64_t allocs = 0;
  {
    CorrelationWorkspace ws;
    Scoped phase(tracer, "replay.css_layer");
    for (std::size_t i = 0; i < cells_flat.size(); ++i) {
      const std::uint64_t a0 = thread_allocations();
      Scoped span(tracer, "css.select", phase.id(), static_cast<std::int64_t>(i));
      (void)css.select(cells_flat[i], ws);
      allocs += thread_allocations() - a0;
    }
  }
  {
    CorrelationWorkspace ws;
    Scoped phase(tracer, "replay.kernel_layer");
    for (std::size_t i = 0; i < cells_flat.size(); ++i) {
      Scoped span(tracer, "kernel.argmax", phase.id(), static_cast<std::int64_t>(i));
      (void)engine.combined_argmax(cells_flat[i], ws);
    }
  }
  {
    Scoped phase(tracer, "replay.surface_layer");
    for (std::size_t i = 0; i < cells_flat.size(); ++i) {
      Scoped span(tracer, "kernel.surface", phase.id(), static_cast<std::int64_t>(i));
      (void)engine.combined_surface(cells_flat[i]);
    }
  }
  {
    // One batched walk per cell (a cell's sweeps share one subset).
    CorrelationWorkspace ws;
    Scoped phase(tracer, "replay.batch_layer");
    std::vector<std::span<const SectorReading>> group;
    std::vector<CorrelationEngine::ArgmaxResult> out;
    for (std::size_t c = 0; c + 1 < cell_start.size(); ++c) {
      group.clear();
      for (std::size_t i = cell_start[c]; i < cell_start[c + 1]; ++i) {
        group.push_back(cells_flat[i]);
      }
      if (group.empty()) continue;
      out.resize(group.size());
      Scoped span(tracer, "kernel.argmax_batch", phase.id(), static_cast<std::int64_t>(c));
      engine.combined_argmax_batch(group, out, ws);
    }
  }
  const double select_s = tracer.total_s("css.select");
  const double argmax_s = tracer.total_s("kernel.argmax");
  outcome.metric("css.select_us", select_s / n * 1e6, "us");
  outcome.metric("kernel.argmax_us", argmax_s / n * 1e6, "us");
  outcome.metric("css.self_us", (select_s - argmax_s) / n * 1e6, "us");
  outcome.metric("kernel.surface_us", tracer.total_s("kernel.surface") / n * 1e6, "us");
  outcome.metric("kernel.argmax_batch_us_per_member",
                 tracer.total_s("kernel.argmax_batch") / n * 1e6, "us");
  outcome.metric("alloc.per_report", static_cast<double>(allocs) / n, "count");
  outcome.metric("trace.overhead_share", (select_s - untraced_s) / untraced_s, "ratio");

  tracer.write(options.out_dir + "/trace-replay_figs.json");
}

}  // namespace perfbench
