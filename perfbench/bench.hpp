// perfbench: the repository's end-to-end benchmark of the selection
// service. See README.md in this directory for the workloads, the metric
// map and the noise notes that explain the run lengths.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/antenna/pattern.hpp"
#include "src/common/rng.hpp"
#include "src/core/pattern_assets.hpp"
#include "src/driver/link_session.hpp"
#include "src/phy/measurement.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double elapsed_s(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

// The end-to-end metrics time work in CPU time (README.md, "Host noise"):
// the kernel leaves out of a thread's CPU time the stretches its vCPU was
// preempted by the hypervisor, which wall time counts.
inline double cpu_clock_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// CPU time of the calling thread [s].
inline double thread_cpu_s() { return cpu_clock_s(CLOCK_THREAD_CPUTIME_ID); }

/// CPU time of every thread of the process, exited ones included [s].
inline double process_cpu_s() { return cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID); }

/// Command line of one benchmark run.
struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{20.0};
  bool trace{false};
  /// Directory for generated inputs and the span dump (inside the checkout).
  std::string out_dir{"."};
};

/// What one run prints as its final JSON line: failure accounting plus the
/// metrics, each with its unit.
class Outcome {
 public:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };

  /// Count one attempted operation; a false `ok` is a failure, explained on
  /// stderr.
  void check(bool ok, const std::string& what);
  /// Count `n` attempted operations of which `failed` failed.
  void tally(std::uint64_t n, std::uint64_t failed, const std::string& what);
  /// Set (or overwrite) a metric.
  void metric(const std::string& name, double value, const std::string& unit);
  /// The metric called `name`, or null.
  const Metric* find(const std::string& name) const;
  /// The same failure accounting with no metrics.
  Outcome without_metrics() const;

  bool correct() const { return failed_ == 0; }
  /// The result object as one JSON line.
  std::string json() const;

 private:
  std::uint64_t attempted_{0};
  std::uint64_t failed_{0};
  std::vector<Metric> metrics_;
};

// --- statistics and process probes --------------------------------------

double median(std::vector<double> values);
/// Peak resident set size of the process so far [MiB].
double peak_rss_mib();
/// Current resident set size [MiB].
double current_rss_mib();
/// Heap allocations made by the calling thread so far (the benchmark
/// binary replaces the global operator new with a counting one).
std::uint64_t thread_allocations();

// --- inputs ----------------------------------------------------------------

/// The workloads' traffic shapes (README.md explains each).
enum class Traffic { kPlan, kStateful };

/// Fixed per-workload settings; none depends on the seed.
struct ServeWorkload {
  const char* name;
  Traffic traffic;
  /// Offered rate of the open-loop load [reports/s].
  double fixed_rate;
};

inline constexpr int kLinks = 1000;
inline constexpr std::size_t kProbes = 14;
/// Pre-generated reports per link; each link's stream cycles through them.
inline constexpr std::size_t kReportsPerLink = 16;
/// Reports in the traced run's synchronous burst.
inline constexpr std::size_t kBurst = 16384;
/// Links replayed synchronously by the correctness gate.
inline constexpr int kGateLinks = 100;

/// The paper-resolution anechoic campaign of the standard DUT (Sec. 4.5).
talon::PatternTable measure_standard_table();

/// The Eq. 3 search grid every selector in the benchmark uses.
talon::AngularGrid search_grid();

/// A recalibrated copy of `table` (small per-sector gain tilts), the
/// payload of the mid-run hot swap.
talon::PatternTable recalibrate(const talon::PatternTable& table);

/// Session configuration of a traffic shape.
talon::CssDaemonConfig session_config(Traffic traffic);

/// Everything a serve run feeds the daemon, generated before set-up.
struct ServeInputs {
  /// The measured table, written as CSV for the timed set-up to parse.
  std::string table_csv;
  std::shared_ptr<const talon::PatternAssets> recalibrated;
  talon::CssDaemonConfig session;
  /// kLinks x kReportsPerLink reports, link-major.
  std::vector<std::vector<talon::SectorReading>> pool;

  /// The j-th report of `link`'s stream (the pool is replayed cyclically).
  const std::vector<talon::SectorReading>& report(int link, std::uint64_t j) const {
    return pool[static_cast<std::size_t>(link) * kReportsPerLink +
                j % kReportsPerLink];
  }
};

ServeInputs make_serve_inputs(const ServeWorkload& workload, std::uint64_t seed,
                              const std::string& out_dir,
                              double* campaign_seconds = nullptr);

/// The initial RNG of `link`'s session (identical for the daemon and every
/// synchronous twin).
talon::Rng link_rng(std::uint64_t seed, int link);

/// The open-loop arrival process: exponential gaps at a given rate, each
/// arrival addressed to a uniformly drawn link. Seeded, so the serve run
/// and the traced run see the same link sequence.
class Arrivals {
 public:
  explicit Arrivals(std::uint64_t seed);
  /// Gap to the next arrival [ns] at `rate` reports/s.
  double next_gap_ns(double rate);
  int next_link();

 private:
  std::uint64_t next();
  std::uint64_t state_;
};

// --- workloads ---------------------------------------------------------------

const ServeWorkload* find_serve_workload(const std::string& name);

void run_serve(const ServeWorkload& workload, const Options& options,
               Outcome& outcome);
void run_serve_traced(const ServeWorkload& workload, const Options& options,
                      Outcome& outcome);
void run_replay(const Options& options, Outcome& outcome);
void run_replay_traced(const Options& options, Outcome& outcome);

}  // namespace perfbench
