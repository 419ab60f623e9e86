// Shared pieces of the benchmark: result accounting, process probes, the
// counting allocator, and input generation.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>

#include "perfbench/bench.hpp"
#include "src/antenna/codebook.hpp"
#include "src/common/csv.hpp"
#include "src/core/css.hpp"
#include "src/measure/campaign.hpp"
#include "src/sim/scenario.hpp"

// --- counting global allocator ----------------------------------------------
// Every heap allocation of the benchmark process bumps a thread-local
// counter; the traced run reads it around single-threaded calls to count
// allocations per report on the selection path.

namespace {
thread_local std::uint64_t t_allocations = 0;

void* counted_alloc(std::size_t n) {
  ++t_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t align) {
  ++t_allocations;
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (std::max<std::size_t>(n, 1) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace perfbench {

using namespace talon;

namespace {
// Benchmark-local substream tags (the program's own tags live in
// src/common/rng.hpp; these only seed the benchmark's inputs).
constexpr std::uint64_t kTagPlan = 0x7065'0001;
constexpr std::uint64_t kTagLink = 0x7065'0002;
constexpr std::uint64_t kTagSession = 0x7065'0003;
constexpr std::uint64_t kTagArrivals = 0x7065'0004;
constexpr std::uint64_t kPlanSeed = 20171212;

double quantize_clamp(double db, double step, double lo, double hi) {
  return std::clamp(std::round(db / step) * step, lo, hi);
}
}  // namespace

void Outcome::check(bool ok, const std::string& what) {
  tally(1, ok ? 0 : 1, what);
}

void Outcome::tally(std::uint64_t n, std::uint64_t failed, const std::string& what) {
  attempted_ += n;
  failed_ += failed;
  if (failed != 0) {
    std::fprintf(stderr, "perfbench: FAILED %s (%llu of %llu)\n", what.c_str(),
                 static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(n));
  }
}

void Outcome::metric(const std::string& name, double value, const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m = Metric{name, value, unit};
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit});
}

const Outcome::Metric* Outcome::find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

Outcome Outcome::without_metrics() const {
  Outcome out = *this;
  out.metrics_.clear();
  return out;
}

std::string Outcome::json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(attempted_, 1));
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    // JSON has no NaN/inf; a non-finite value is reported as 0 (the
    // failure that produced it is already counted).
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double current_rss_mib() {
  std::ifstream statm("/proc/self/statm");
  long size = 0;
  long resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

std::uint64_t thread_allocations() { return t_allocations; }

PatternTable measure_standard_table() {
  Scenario chamber = make_anechoic_scenario(/*seed=*/42);
  CampaignConfig config;
  config.azimuth = make_axis(-90.0, 90.0, 1.8);
  config.elevation = make_axis(0.0, 32.4, 3.6);
  config.repetitions = 3;
  return measure_sector_patterns(chamber, config).take_table();
}

AngularGrid search_grid() { return CssConfig{}.search_grid; }

PatternTable recalibrate(const PatternTable& table) {
  PatternTable out;
  for (int id : table.ids()) {
    Grid2D pattern = table.pattern(id);
    const double tilt_db = 0.25 * static_cast<double>(id % 5);
    for (double& v : pattern.values()) v += tilt_db;
    out.add(id, std::move(pattern));
  }
  return out;
}

CssDaemonConfig session_config(Traffic traffic) {
  CssDaemonConfig config;
  config.probes = kProbes;
  if (traffic == Traffic::kStateful) {
    config.adaptive = true;
    // Reports carry kProbes readings (the pool is generated ahead of the
    // sessions), so the controller may shrink the probe count but not grow
    // it past what a report delivers -- otherwise every report would read
    // as underfilled once the controller widened its search.
    config.adaptive_config.max_probes = kProbes;
    config.adaptive_config.initial_probes = kProbes;
    config.track_path = true;
    config.degradation.enabled = true;
  }
  return config;
}

Rng link_rng(std::uint64_t seed, int link) {
  return Rng(substream_seed(seed, kTagSession, static_cast<std::uint64_t>(link)));
}

ServeInputs make_serve_inputs(const ServeWorkload& workload, std::uint64_t seed,
                              const std::string& out_dir, double* campaign_seconds) {
  const std::int64_t t0 = now_ns();
  PatternTable table = measure_standard_table();
  if (campaign_seconds != nullptr) *campaign_seconds = elapsed_s(t0);

  ServeInputs in;
  in.session = session_config(workload.traffic);
  in.table_csv = out_dir + "/table-" + workload.name + ".csv";
  write_csv_file(in.table_csv, table.to_csv());
  in.recalibrated = std::make_shared<const PatternAssets>(
      recalibrate(table), search_grid(), CorrelationDomain::kLinear);

  const std::vector<int>& tx = talon_tx_sector_ids();
  const int n_tx = static_cast<int>(tx.size());
  // The probing plan: 8 subset sequences shared by every link. It is part
  // of the deployment's configuration, not of its traffic, so it is the
  // same for every seed (the plan decides how much each argmax prunes).
  std::vector<std::vector<int>> plan;
  Rng plan_rng(substream_seed(kPlanSeed, kTagPlan));
  for (int p = 0; p < 8; ++p) {
    std::vector<int> subset;
    for (int i : plan_rng.sample_without_replacement(n_tx, static_cast<int>(kProbes))) {
      subset.push_back(tx[static_cast<std::size_t>(i)]);
    }
    plan.push_back(std::move(subset));
  }

  in.pool.reserve(static_cast<std::size_t>(kLinks) * kReportsPerLink);
  for (int link = 0; link < kLinks; ++link) {
    Rng rng(substream_seed(seed, kTagLink, static_cast<std::uint64_t>(link)));
    // Each link's peer sits in its own direction and sways slowly; the
    // sway is a triangle wave over the pool so the cyclic replay has no
    // jump at the wrap.
    const double az0 = rng.uniform(-50.0, 50.0);
    const double el = rng.uniform(2.0, 26.0);
    const double sway = rng.uniform(2.0, 6.0);
    for (std::size_t k = 0; k < kReportsPerLink; ++k) {
      const double phase = static_cast<double>(k) / kReportsPerLink;
      const double tri = phase < 0.5 ? 4.0 * phase - 1.0 : 3.0 - 4.0 * phase;
      const Direction truth{az0 + sway * tri, el};
      const std::vector<int>& subset = plan[static_cast<std::size_t>(rng.uniform_int(0, 7))];
      // Stateful traffic: 3 of every link's 16 reports are bad -- one
      // underfilled and one flat at the reporting floor back to back (two
      // withheld rounds in a row trip the link into Acquisition), and one
      // more flat report on its own. Fixed positions keep the share and the
      // trip rate the same for every seed.
      const bool stateful = workload.traffic == Traffic::kStateful;
      const bool underfilled = stateful && k == 4;
      const bool flat = stateful && (k == 5 || k == 11);
      std::vector<SectorReading> readings;
      for (int id : subset) {
        double snr = table.sample_db(id, truth) + rng.normal(0.5);
        double rssi = snr - 60.0 + rng.normal(0.8);
        if (flat) {
          snr = -7.0 + 0.25 * rng.uniform_int(0, 1);
          rssi = -67.0 + rng.uniform_int(0, 1);
        }
        readings.push_back(SectorReading{
            .sector_id = id,
            .snr_db = quantize_clamp(snr, 0.25, -7.0, 12.0),
            .rssi_dbm = quantize_clamp(rssi, 1.0, -90.0, -40.0)});
        if (underfilled && readings.size() == 3) break;
      }
      in.pool.push_back(std::move(readings));
    }
  }
  return in;
}

Arrivals::Arrivals(std::uint64_t seed) : state_(substream_seed(seed, kTagArrivals)) {}

std::uint64_t Arrivals::next() {
  // SplitMix64: cheap enough to run on the producer's critical path.
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Arrivals::next_gap_ns(double rate) {
  const double u = (static_cast<double>(next() >> 11) + 0.5) * 0x1.0p-53;
  return -std::log(u) / rate * 1e9;
}

int Arrivals::next_link() {
  return static_cast<int>((next() >> 32) * static_cast<std::uint64_t>(kLinks) >> 32);
}

}  // namespace perfbench
