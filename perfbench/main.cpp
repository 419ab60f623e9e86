// perfbench entry point:
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>
// Prints progress on stderr and, as the last line of stdout, one JSON
// object with the failure accounting and the metrics (every end-to-end
// metric with --trace 0, every per-layer metric with --trace 1). Exits
// non-zero when any correctness check failed.
#include <cstdio>
#include <cstring>
#include <exception>
#include <span>
#include <string>

#include "perfbench/bench.hpp"

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"capacity_rps", "1/s"},
    {"peak_rss_mib", "MiB"},
    {"replay_sel_per_s", "1/s"},
};

// Must match BENCHMARK.json. A layer the workload does not exercise
// reports 0 (README.md lists which workload each one applies to).
constexpr MetricSpec kPerLayer[] = {
    {"serve.latency_mean_us", "us"},
    {"serve.submit_ns", "ns"},
    {"serve.drain_us_per_report", "us"},
    {"serve.self_us_per_report", "us"},
    {"serve.reports_per_cycle", "count"},
    {"serve.scrape_us", "us"},
    {"serve.swap_us", "us"},
    {"serve.rebinds", "count"},
    {"serve.add_link_us", "us"},
    {"table.parse_s", "s"},
    {"assets.build_s", "s"},
    {"session.process_report_us", "us"},
    {"session.self_us", "us"},
    {"session.withheld_share", "ratio"},
    {"session.full_sweep_share", "ratio"},
    {"session.trips", "count"},
    {"alloc.per_report", "count"},
    {"css.select_us", "us"},
    {"css.self_us", "us"},
    {"kernel.argmax_us", "us"},
    {"kernel.argmax_batch_us_per_member", "us"},
    {"kernel.surface_us", "us"},
    {"panel.hit_ratio", "ratio"},
    {"panel.build_us", "us"},
    {"panel.cached", "count"},
    {"mem.per_link_kib", "KiB"},
    {"assets.shared_mib", "MiB"},
    {"workspace.growth_events", "count"},
    {"campaign.measure_s", "s"},
    {"campaign.record_s", "s"},
    {"replay.error_s", "s"},
    {"replay.quality_s", "s"},
    {"replay.selections", "count"},
    {"gen.late_p99_us", "us"},
    {"trace.overhead_share", "ratio"},
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload serve_plan|serve_stateful|"
               "replay_figs --seed N --seconds S --trace 0|1 [--out DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--out") {
      options.out_dir = value;
    } else {
      return usage();
    }
  }
  if (options.seconds <= 0.0) return usage();
  const perfbench::ServeWorkload* serve = perfbench::find_serve_workload(options.workload);
  if (serve == nullptr && options.workload != "replay_figs") return usage();

  perfbench::Outcome outcome;
  try {
    if (serve != nullptr) {
      if (options.trace) {
        perfbench::run_serve_traced(*serve, options, outcome);
      } else {
        perfbench::run_serve(*serve, options, outcome);
      }
    } else if (options.trace) {
      perfbench::run_replay_traced(options, outcome);
    } else {
      perfbench::run_replay(options, outcome);
    }
  } catch (const std::exception& e) {
    outcome.check(false, std::string("uncaught exception: ") + e.what());
  }

  // Report exactly the contract's metric set, in a fixed order.
  perfbench::Outcome report = outcome.without_metrics();
  for (const MetricSpec& spec : options.trace ? std::span<const MetricSpec>(kPerLayer)
                                              : std::span<const MetricSpec>(kEndToEnd)) {
    const perfbench::Outcome::Metric* m = outcome.find(spec.name);
    report.check(m == nullptr || m->unit == spec.unit,
                 std::string("unit of ") + spec.name);
    report.metric(spec.name, m != nullptr ? m->value : 0.0, spec.unit);
  }
  std::fflush(stderr);
  std::printf("%s\n", report.json().c_str());
  return report.correct() ? 0 : 1;
}
