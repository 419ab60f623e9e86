// Serve-run building blocks shared by the end-to-end run and the traced
// run: the timed set-up sequence and the open-loop load generator.
#pragma once

#include <memory>
#include <vector>

#include "perfbench/bench.hpp"
#include "src/driver/serve.hpp"

namespace perfbench {

/// A step whose generator submitted half of its reports later than this
/// fell behind its schedule and is invalid: the producer, not the daemon,
/// missed it. (The tail of the lateness is no test: the hypervisor
/// preempts the producer's vCPU for milliseconds several times a second,
/// and the arrivals due meanwhile go out late, back to back, while the
/// offered rate holds.)
inline constexpr double kMaxMedianLateUs = 100.0;

/// Set-up parts, each in CPU time of the calling thread (the set-up
/// sequence is single-threaded).
struct SetupTimings {
  double parse_s{0.0};
  double assets_s{0.0};
  double add_link_us{0.0};
  double total_s{0.0};
};

/// The set-up sequence setup_s times: parse the table CSV, build the
/// assets, construct the daemon, add every link, start the consumer.
std::unique_ptr<talon::ServeDaemon> timed_setup(const ServeInputs& in,
                                                const talon::ServeConfig& config,
                                                std::uint64_t seed,
                                                SetupTimings* timings);

/// The daemon configuration of every serve run (--threads 2 fan-out).
talon::ServeConfig serve_config();

/// Freshly built assets from the table CSV, with a cold panel cache.
std::shared_ptr<const talon::PatternAssets> load_assets(const ServeInputs& inputs);

/// One open-loop step at a fixed offered rate.
struct StepResult {
  double rate{0.0};
  std::uint64_t sent{0};
  /// Mean submit -> selection latency [us], exact from the histogram's sum.
  double mean_us{0.0};
  /// CPU time the daemon's threads (consumer and fan-out helpers) spent
  /// over the step, the producer's excluded [s].
  double daemon_cpu_s{0.0};
  /// Every report of the step was processed and its latency recorded.
  bool drained{false};
  /// Median and 99th percentile of how late the producer submitted [us].
  double late_p50_us{0.0};
  double late_p99_us{0.0};
  /// The generator kept its schedule.
  bool valid{false};
};

/// One producer thread (the caller) offering Poisson arrivals over the
/// fleet. Each link's stream cycles through its pre-generated reports, so
/// a link's j-th report is always inputs.report(link, j). While a step runs
/// no other thread of the process works but the daemon's.
class OpenLoop {
 public:
  OpenLoop(talon::ServeDaemon& serve, const ServeInputs& inputs, std::uint64_t seed);

  /// Offer `rate` reports/s for `seconds`, then wait until the daemon has
  /// processed all of them.
  StepResult run(double rate, double seconds);

  /// Submit `reports` reports back to back and wait until they are
  /// processed (warm-up). False when they were not all processed.
  bool prime(std::size_t reports);

  /// Reports submitted to `link` so far (its stream position).
  std::uint64_t cursor(int link) const { return cursors_[static_cast<std::size_t>(link)]; }
  bool drained() const;

 private:
  void submit_next();

  talon::ServeDaemon& serve_;
  const ServeInputs& inputs_;
  Arrivals arrivals_;
  std::vector<std::uint64_t> cursors_;
  std::vector<float> late_ns_;
};

/// load.run(), repeated while the generator fell behind its own schedule:
/// that says nothing about the daemon, so such a step is not scored. A step
/// still late after kStepTries tries comes back with valid == false (the
/// caller leaves it out of every metric). Every try is logged to stderr and
/// checked for full processing; `late_tries` counts the late ones.
StepResult run_valid_step(OpenLoop& load, double rate, double seconds, const char* phase,
                          Outcome& outcome, std::uint64_t* late_tries);

/// Tries of a step whose generator ran late.
inline constexpr int kStepTries = 3;

}  // namespace perfbench
