// The serve workloads' end-to-end run: timed set-ups, rounds of open-loop
// load at the workload's fixed rate with a hot swap halfway through, a
// synchronous twin replaying a sample of the links, and the correctness
// gate.
#include <algorithm>
#include <cstdio>
#include <thread>

#include "perfbench/serve_driver.hpp"
#include "src/common/csv.hpp"
#include "src/driver/css_daemon.hpp"

namespace perfbench {

using namespace talon;

namespace {

constexpr double kWarmupSeconds = 1.0;
/// Length of each round's open-loop step.
constexpr double kStepSeconds = 0.5;
/// Saturated drain cycles per round.
constexpr int kSaturatedCycles = 8;

void log_step(const char* phase, const StepResult& step) {
  std::fprintf(stderr,
               "perfbench: %s %.0f/s sent=%llu mean=%.1fus cpu=%.2fus/report "
               "late_p50=%.1fus late_p99=%.1fus%s\n",
               phase, step.rate, static_cast<unsigned long long>(step.sent), step.mean_us,
               step.sent > 0 ? step.daemon_cpu_s * 1e6 / static_cast<double>(step.sent) : 0.0,
               step.late_p50_us, step.late_p99_us, step.valid ? "" : " (generator late)");
}

}  // namespace

const ServeWorkload* find_serve_workload(const std::string& name) {
  // A third to a quarter of the rate each workload's daemon sustains on a
  // calm host (README.md), so the consumer keeps up when the host slows.
  static const ServeWorkload kWorkloads[] = {
      {"serve_plan", Traffic::kPlan, 20000.0},
      {"serve_stateful", Traffic::kStateful, 15000.0},
  };
  for (const ServeWorkload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::unique_ptr<ServeDaemon> timed_setup(const ServeInputs& in,
                                         const ServeConfig& config,
                                         std::uint64_t seed,
                                         SetupTimings* timings) {
  const double t0 = thread_cpu_s();
  PatternTable table = PatternTable::from_csv(read_csv_file(in.table_csv));
  const double t1 = thread_cpu_s();
  auto assets = std::make_shared<const PatternAssets>(std::move(table), search_grid(),
                                                      CorrelationDomain::kLinear);
  const double t2 = thread_cpu_s();
  auto serve = std::make_unique<ServeDaemon>(std::move(assets), in.session, config);
  const double t3 = thread_cpu_s();
  for (int link = 0; link < kLinks; ++link) serve->add_link(link, link_rng(seed, link));
  const double t4 = thread_cpu_s();
  serve->start();
  const double t5 = thread_cpu_s();
  if (timings != nullptr) {
    timings->parse_s = t1 - t0;
    timings->assets_s = t2 - t1;
    timings->add_link_us = (t4 - t3) * 1e6 / kLinks;
    timings->total_s = t5 - t0;
  }
  return serve;
}

ServeConfig serve_config() {
  ServeConfig config;
  // 0.4 s of arrivals at the fixed rates, so the producer does not block
  // on a full queue while the hypervisor holds the consumer's vCPU.
  config.queue_capacity = 8192;
  config.threads = 2;
  return config;
}

std::shared_ptr<const PatternAssets> load_assets(const ServeInputs& inputs) {
  return std::make_shared<const PatternAssets>(
      PatternTable::from_csv(read_csv_file(inputs.table_csv)), search_grid(),
      CorrelationDomain::kLinear);
}

OpenLoop::OpenLoop(ServeDaemon& serve, const ServeInputs& inputs, std::uint64_t seed)
    : serve_(serve), inputs_(inputs), arrivals_(seed), cursors_(kLinks, 0) {
  // Touch the lateness buffer's pages now rather than inside a step.
  late_ns_.resize(1 << 18);
  late_ns_.clear();
}

void OpenLoop::submit_next() {
  const int link = arrivals_.next_link();
  std::uint64_t& cursor = cursors_[static_cast<std::size_t>(link)];
  serve_.submit(link, inputs_.report(link, cursor));
  ++cursor;
}

bool OpenLoop::prime(std::size_t reports) {
  const std::uint64_t submitted0 = serve_.submitted();
  for (std::size_t i = 0; i < reports; ++i) submit_next();
  const std::int64_t start = now_ns();
  while (!drained() && elapsed_s(start) < 30.0) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return drained() && serve_.submitted() - submitted0 == reports;
}

StepResult OpenLoop::run(double rate, double seconds) {
  StepResult step;
  step.rate = rate;
  LatencyHistogram& histogram =
      serve_.telemetry().histogram("serve_selection_latency_us");
  const LatencyHistogram before = histogram;
  const std::uint64_t processed0 = serve_.processed();
  const std::uint64_t submitted0 = serve_.submitted();
  late_ns_.clear();
  const double process_cpu0 = process_cpu_s();
  const double producer_cpu0 = thread_cpu_s();

  const std::int64_t start = now_ns();
  const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
  double due = static_cast<double>(start);
  for (;;) {
    due += arrivals_.next_gap_ns(rate);
    if (due >= static_cast<double>(end)) break;
    const int link = arrivals_.next_link();
    std::uint64_t& cursor = cursors_[static_cast<std::size_t>(link)];
    std::vector<SectorReading> readings = inputs_.report(link, cursor);
    std::int64_t now = now_ns();
    while (static_cast<double>(now) < due) now = now_ns();
    late_ns_.push_back(static_cast<float>(static_cast<double>(now) - due));
    serve_.submit(link, std::move(readings));
    ++cursor;
    ++step.sent;
  }

  // Let the consumer finish the step (and record every latency) before
  // the next one starts from an empty queue.
  const std::int64_t wait_start = now_ns();
  while ((serve_.processed() != serve_.submitted() ||
          histogram.count() - before.count() != step.sent) &&
         elapsed_s(wait_start) < 30.0) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  step.daemon_cpu_s = (process_cpu_s() - process_cpu0) - (thread_cpu_s() - producer_cpu0);
  step.drained = serve_.processed() - processed0 == step.sent &&
                 serve_.submitted() - submitted0 == step.sent &&
                 histogram.count() - before.count() == step.sent;

  const LatencyHistogram after = histogram;
  const std::uint64_t count = after.count() - before.count();
  step.mean_us = count == 0 ? 0.0
                            : static_cast<double>(after.sum_us() - before.sum_us()) /
                                  static_cast<double>(count);
  auto late_quantile_us = [&](std::size_t percent) {
    const std::size_t at = late_ns_.size() * percent / 100;
    std::nth_element(late_ns_.begin(), late_ns_.begin() + static_cast<std::ptrdiff_t>(at),
                     late_ns_.end());
    return late_ns_[at] * 1e-3;
  };
  if (!late_ns_.empty()) {
    step.late_p50_us = late_quantile_us(50);
    step.late_p99_us = late_quantile_us(99);
  }
  step.valid = step.late_p50_us <= kMaxMedianLateUs;
  return step;
}

bool OpenLoop::drained() const { return serve_.processed() == serve_.submitted(); }

StepResult run_valid_step(OpenLoop& load, double rate, double seconds, const char* phase,
                          Outcome& outcome, std::uint64_t* late_tries) {
  StepResult step;
  for (int attempt = 0; attempt < kStepTries; ++attempt) {
    step = load.run(rate, seconds);
    log_step(phase, step);
    outcome.check(step.drained, std::string(phase) + " step: every report processed");
    if (step.valid) break;
    ++*late_tries;
  }
  if (!step.valid) {
    std::fprintf(stderr, "perfbench: INVALID %s step at %.0f/s: the generator stayed "
                         "late; left out of the metrics\n", phase, rate);
  }
  return step;
}

namespace {

/// The async == sync gate's synchronous side: a CssDaemon replaying an
/// evenly spaced sample of links' streams on the calling thread, caught up
/// between load steps (so its selection rate samples the whole run, not
/// its last seconds).
class SyncTwin {
 public:
  SyncTwin(const ServeInputs& inputs, std::shared_ptr<const PatternAssets> initial,
           int links, std::uint64_t seed)
      : inputs_(inputs), twin_(std::move(initial), inputs.session) {
    for (int i = 0; i < links; ++i) {
      const int link = i * (kLinks / links);
      links_.push_back(link);
      twin_.add_headless_link(link, link_rng(seed, link));
    }
    done_.assign(links_.size(), 0);
  }

  /// Replay every report the load has submitted to the sample so far.
  void catch_up(const OpenLoop& load) {
    const double t0 = thread_cpu_s();
    for (std::size_t i = 0; i < links_.size(); ++i) {
      LinkSession& session = twin_.session(links_[i]);
      const std::uint64_t end = load.cursor(links_[i]);
      for (std::uint64_t j = done_[i]; j < end; ++j) {
        session.process_report(inputs_.report(links_[i], j));
      }
      selections_ += end - done_[i];
      done_[i] = end;
    }
    cpu_s_ += thread_cpu_s() - t0;
  }

  /// The hot swap, at the same stream position as the daemon's.
  void rebind(const std::shared_ptr<const PatternAssets>& next) {
    for (int link : links_) twin_.session(link).rebind_assets(next);
  }

  /// Sample links whose exported state differs from the daemon's.
  std::size_t mismatches(ServeDaemon& serve) const {
    std::size_t n = 0;
    for (int link : links_) {
      if (!(twin_.session(link).export_state() ==
            serve.daemon().session(link).export_state())) {
        ++n;
      }
    }
    return n;
  }

  /// Selections per CPU second.
  double selections_per_s() const {
    return cpu_s_ > 0.0 ? static_cast<double>(selections_) / cpu_s_ : 0.0;
  }

 private:
  const ServeInputs& inputs_;
  CssDaemon twin_;
  std::vector<int> links_;
  std::vector<std::uint64_t> done_;
  std::uint64_t selections_{0};
  double cpu_s_{0.0};
};

/// capacity_rps: the serve path's one-core throughput at saturation. A
/// stopped daemon with one fan-out thread takes a full drain cycle of
/// reports (the batch the consumer drains when the queue never runs dry)
/// and drain_all processes it on the calling thread, timed in that
/// thread's CPU time. It has its own sessions and stream positions.
class SaturatedDrain {
 public:
  SaturatedDrain(const ServeInputs& inputs, std::uint64_t seed)
      : inputs_(inputs),
        serve_(load_assets(inputs), inputs.session, config()),
        arrivals_(seed),
        cursors_(kLinks, 0) {
    for (int link = 0; link < kLinks; ++link) serve_.add_link(link, link_rng(seed, link));
  }

  void run_cycles(int cycles) {
    const std::size_t batch = serve_config().drain_batch;
    for (int c = 0; c < cycles; ++c) {
      for (std::size_t i = 0; i < batch; ++i) {
        const int link = arrivals_.next_link();
        std::uint64_t& cursor = cursors_[static_cast<std::size_t>(link)];
        serve_.submit(link, inputs_.report(link, cursor));
        ++cursor;
      }
      const double t0 = thread_cpu_s();
      const std::size_t n = serve_.drain_all();
      const double cpu_s = thread_cpu_s() - t0;
      submitted_ += batch;
      processed_ += n;
      if (cpu_s > 0.0) rates_.push_back(static_cast<double>(n) / cpu_s);
    }
  }

  std::uint64_t submitted() const { return submitted_; }
  std::uint64_t processed() const { return processed_; }
  double reports_per_s() const { return median(rates_); }

 private:
  static ServeConfig config() {
    ServeConfig config = serve_config();
    config.threads = 1;
    return config;
  }

  const ServeInputs& inputs_;
  ServeDaemon serve_;
  Arrivals arrivals_;
  std::vector<std::uint64_t> cursors_;
  std::uint64_t submitted_{0};
  std::uint64_t processed_{0};
  std::vector<double> rates_;
};

}  // namespace

void run_serve(const ServeWorkload& workload, const Options& options, Outcome& outcome) {
  // Inputs first, so set-up times only the daemon's own work.
  const ServeInputs inputs = make_serve_inputs(workload, options.seed, options.out_dir);
  const ServeConfig config = serve_config();

  std::vector<double> setup_s;
  SetupTimings timings;
  std::unique_ptr<ServeDaemon> serve = timed_setup(inputs, config, options.seed, &timings);
  setup_s.push_back(timings.total_s);
  // Further set-ups run between the load steps (a throwaway daemon each),
  // so setup_s is a median over the host phases of the whole run.
  auto extra_setup = [&] {
    timed_setup(inputs, config, options.seed, &timings);
    setup_s.push_back(timings.total_s);
  };

  OpenLoop load(*serve, inputs, options.seed);
  SyncTwin twin(inputs, serve->current_assets(), kGateLinks, options.seed);
  std::uint64_t late_tries = 0;
  auto valid_step = [&](double rate, double seconds, const char* phase) {
    return run_valid_step(load, rate, seconds, phase, outcome, &late_tries);
  };

  // Warm-up, checked but not measured: one queue's worth of reports as
  // fast as the daemon takes them (every queue cell is touched once, so
  // no page fault lands in a measured step), then a second at the fixed
  // rate.
  outcome.check(load.prime(config.queue_capacity), "warm-up: every report processed");
  valid_step(workload.fixed_rate, kWarmupSeconds, "warm-up");
  twin.catch_up(load);

  // The measured rounds: one open-loop step at the fixed rate, then the
  // synchronous twin catches up, a few saturated drain cycles run and one
  // more set-up is timed, so every metric samples the host's phases across
  // the whole run. Halfway through, the recalibrated table is published
  // while the consumer runs (between rounds, with the queue empty, so the
  // twin can take the swap at exactly the same stream position).
  SaturatedDrain saturated(inputs, options.seed);
  std::size_t valid_steps = 0;
  bool swapped = false;
  const std::int64_t start = now_ns();
  while (elapsed_s(start) < options.seconds) {
    if (!swapped && elapsed_s(start) >= options.seconds / 2) {
      serve->swap_assets(inputs.recalibrated);
      twin.rebind(inputs.recalibrated);
      swapped = true;
    }
    if (valid_step(workload.fixed_rate, kStepSeconds, "load").valid) ++valid_steps;
    twin.catch_up(load);
    saturated.run_cycles(kSaturatedCycles);
    extra_setup();
  }
  const double rss = peak_rss_mib();
  serve->stop();
  std::fprintf(stderr, "perfbench: %zu set-ups, %zu valid load steps, %llu late tries\n",
               setup_s.size(), valid_steps, static_cast<unsigned long long>(late_tries));

  // --- correctness gate -------------------------------------------------
  const std::uint64_t submitted = serve->submitted();
  outcome.tally(submitted, submitted - std::min(submitted, serve->processed()),
                "reports processed == submitted");
  outcome.check(serve->rejected() == 0, "zero rejected submissions");
  outcome.check(swapped && serve->assets_epoch() == 1 &&
                    serve->current_assets().get() == inputs.recalibrated.get(),
                "hot swap published");
  outcome.check(serve->rebinds() == static_cast<std::uint64_t>(kLinks),
                "every link rebound once");
  outcome.tally(static_cast<std::uint64_t>(kGateLinks), twin.mismatches(*serve),
                "async state == synchronous replay");
  outcome.tally(saturated.submitted(),
                saturated.submitted() - std::min(saturated.submitted(), saturated.processed()),
                "saturated drain processed every report");

  outcome.metric("setup_s", median(setup_s), "s");
  outcome.metric("capacity_rps", saturated.reports_per_s(), "1/s");
  outcome.metric("peak_rss_mib", rss, "MiB");
  outcome.metric("replay_sel_per_s", twin.selections_per_s(), "1/s");
}

}  // namespace perfbench
