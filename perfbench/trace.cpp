// The serve workloads' traced run. Serve processing happens on the
// daemon's own threads, so the run cannot time it in place: it drives the
// serve path synchronously (a submit burst, then drain_all on the calling
// thread) and replays the identical per-link streams through a twin
// CssDaemon/LinkSession, CompressiveSectorSelector::select and the
// CorrelationEngine calls, timing each call from outside. Every replay
// starts from its own freshly built assets, so each sees the same panel
// cache misses the drain did.
#include "perfbench/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>

#include "perfbench/serve_driver.hpp"
#include "src/core/css.hpp"
#include "src/driver/css_daemon.hpp"

namespace perfbench {

using namespace talon;

double Tracer::total_s(const char* name) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) == 0) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\":[\n";
  int tid = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent < 0) ++tid;
    char line[256];
    std::snprintf(line, sizeof line,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,\"report\":%lld}}",
                  i == 0 ? "" : ",\n", s.name, tid,
                  static_cast<double>(s.start_ns - origin) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i, s.parent,
                  static_cast<long long>(s.report));
    out << line;
  }
  out << "\n]}\n";
}

namespace {

constexpr double kMiB = 1024.0 * 1024.0;
/// Open-loop seconds of the traced run (split around the hot swap).
constexpr double kOpenLoopSeconds = 3.0;
constexpr int kScrapes = 20;
/// Distinct subsets whose panel builds are timed.
constexpr std::size_t kPanelBuilds = 64;

/// One burst arrival: the link and its report's position in the stream.
struct Arrival {
  int link;
  std::uint64_t j;
};

}  // namespace

void run_serve_traced(const ServeWorkload& workload, const Options& options,
                      Outcome& outcome) {
  Tracer tracer;
  double campaign_s = 0.0;
  const ServeInputs inputs =
      make_serve_inputs(workload, options.seed, options.out_dir, &campaign_s);
  outcome.metric("campaign.measure_s", campaign_s, "s");

  // --- set-up and the open-loop phase ----------------------------------------
  {
    SetupTimings timings;
    std::unique_ptr<ServeDaemon> serve;
    const double rss0 = current_rss_mib();
    {
      Scoped span(tracer, "serve.setup");
      serve = timed_setup(inputs, serve_config(), options.seed, &timings);
    }
    outcome.metric("table.parse_s", timings.parse_s, "s");
    outcome.metric("assets.build_s", timings.assets_s, "s");
    outcome.metric("serve.add_link_us", timings.add_link_us, "us");
    outcome.metric("assets.shared_mib",
                   static_cast<double>(serve->current_assets()->shared_bytes()) / kMiB,
                   "MiB");

    OpenLoop load(*serve, inputs, options.seed);
    std::uint64_t late_tries = 0;
    outcome.check(load.prime(serve_config().queue_capacity), "warm-up fully processed");
    // Drain cycles are published by scrape(); count only the open loop's.
    TelemetryCounter& cycles = serve->telemetry().counter("serve_drain_cycles_total");
    (void)serve->scrape();
    const std::uint64_t cycles0 = cycles.value();
    const std::uint64_t processed0 = serve->processed();
    const StepResult first = run_valid_step(load, workload.fixed_rate, kOpenLoopSeconds / 2,
                                            "latency", outcome, &late_tries);
    {
      Scoped span(tracer, "serve.swap_assets");
      serve->swap_assets(inputs.recalibrated);
    }
    const StepResult second = run_valid_step(load, workload.fixed_rate, kOpenLoopSeconds / 2,
                                             "latency", outcome, &late_tries);
    outcome.metric("serve.swap_us", tracer.total_s("serve.swap_assets") * 1e6, "us");
    const double sent = static_cast<double>(first.sent + second.sent);
    outcome.metric("serve.latency_mean_us",
                   sent > 0 ? (first.mean_us * static_cast<double>(first.sent) +
                               second.mean_us * static_cast<double>(second.sent)) /
                                  sent
                            : 0.0,
                   "us");
    outcome.metric("gen.late_p99_us", std::max(first.late_p99_us, second.late_p99_us),
                   "us");
    {
      Scoped phase(tracer, "serve.scrapes");
      for (int i = 0; i < kScrapes; ++i) {
        Scoped span(tracer, "serve.scrape", phase.id());
        (void)serve->scrape();
      }
    }
    outcome.metric("serve.scrape_us", tracer.total_s("serve.scrape") / kScrapes * 1e6, "us");
    const std::uint64_t open_loop_cycles = cycles.value() - cycles0;
    outcome.metric("serve.reports_per_cycle",
                   open_loop_cycles > 0 ? static_cast<double>(serve->processed() - processed0) /
                                              static_cast<double>(open_loop_cycles)
                                        : 0.0,
                   "count");
    outcome.metric("serve.rebinds", static_cast<double>(serve->rebinds()), "count");
    // Everything the daemon holds after its first 3 s of traffic (sessions,
    // pinned panels, queue, assets), per link.
    outcome.metric("mem.per_link_kib", (current_rss_mib() - rss0) * 1024.0 / kLinks, "KiB");
    serve->stop();
  }

  // --- synchronous burst, replayed layer by layer ---------------------------
  // The burst runs one drain cycle (drain_batch arrivals) at a time: submit
  // the cycle's reports into a stopped daemon, drain_all them on this
  // thread, then replay the same reports, in the order drain_all processes
  // them, through each layer below it. Interleaving the layers per cycle
  // puts them all in the same host phase, so their differences are
  // attributable.
  const std::size_t burst = kBurst;
  const std::size_t cycle = serve_config().drain_batch;
  std::vector<Arrival> stream;
  {
    Arrivals arrivals(options.seed);
    std::vector<std::uint64_t> cursors(kLinks, 0);
    for (std::size_t i = 0; i < burst; ++i) {
      const int link = arrivals.next_link();
      stream.push_back(Arrival{link, cursors[static_cast<std::size_t>(link)]++});
    }
  }
  auto report = [&](std::size_t i) -> const std::vector<SectorReading>& {
    return inputs.report(stream[i].link, stream[i].j);
  };

  ServeConfig config = serve_config();
  // One fan-out thread, so the drain compares with the serial replays; the
  // queue holds a whole cycle (nothing consumes it until drain_all).
  config.threads = 1;
  config.measure_latency = false;
  // Every layer rides its own freshly built assets, so each pays the same
  // panel-cache misses the drain does.
  const auto drain_assets = load_assets(inputs);
  ServeDaemon serve(drain_assets, inputs.session, config);
  CssDaemon twin(load_assets(inputs), inputs.session);
  CssDaemon untraced_twin(load_assets(inputs), inputs.session);
  for (int link = 0; link < kLinks; ++link) {
    serve.add_link(link, link_rng(options.seed, link));
    twin.add_headless_link(link, link_rng(options.seed, link));
    untraced_twin.add_headless_link(link, link_rng(options.seed, link));
  }
  const bool confidence = inputs.session.degradation.enabled;
  CssConfig css_config;
  css_config.compute_confidence = confidence;
  const CompressiveSectorSelector css(load_assets(inputs), css_config);
  const auto kernel_assets = load_assets(inputs);
  const CorrelationEngine& kernel = kernel_assets->engine();
  const auto batch_assets = load_assets(inputs);
  std::vector<CorrelationWorkspace> css_ws(kLinks);
  std::vector<CorrelationWorkspace> kernel_ws(kLinks);
  CorrelationWorkspace batch_ws;
  std::vector<CorrelationEngine::ArgmaxResult> batch_out;
  std::vector<std::span<const SectorReading>> group;

  const auto cache0 = drain_assets->engine().response_matrix().cache_stats();
  std::vector<char> css_round(burst, 0);
  std::uint64_t allocs = 0;
  std::uint64_t batch_members = 0;
  double untraced_s = 0.0;
  std::size_t processed = 0;
  for (std::size_t c0 = 0; c0 < burst; c0 += cycle) {
    const std::size_t c1 = std::min(burst, c0 + cycle);
    {
      Scoped phase(tracer, "serve.submit_burst");
      for (std::size_t i = c0; i < c1; ++i) {
        std::vector<SectorReading> readings = report(i);
        Scoped span(tracer, "serve.submit", phase.id(), static_cast<std::int64_t>(i));
        serve.submit(stream[i].link, std::move(readings));
      }
    }
    // Alternate which side of the drain/twin pair runs first, so neither
    // is always the one that meets a colder cache or a later host phase.
    const bool drain_first = (c0 / cycle) % 2 == 0;
    auto drain = [&] {
      Scoped span(tracer, "serve.drain_all", -1, static_cast<std::int64_t>(c0));
      processed += serve.drain_all();
    };
    if (drain_first) drain();
    // drain_all's order: link by link in order of first arrival in the
    // cycle, each link's reports in stream order.
    std::vector<int> links;
    std::map<int, std::vector<std::size_t>> per_link;
    for (std::size_t i = c0; i < c1; ++i) {
      auto& reports = per_link[stream[i].link];
      if (reports.empty()) links.push_back(stream[i].link);
      reports.push_back(i);
    }
    std::vector<std::size_t> order;
    for (int link : links) order.insert(order.end(), per_link[link].begin(), per_link[link].end());

    const std::int64_t t0 = now_ns();
    for (std::size_t i : order) {
      untraced_twin.session(stream[i].link).process_report(report(i));
    }
    untraced_s += elapsed_s(t0);
    {
      Scoped phase(tracer, "twin.sessions");
      for (std::size_t i : order) {
        LinkSession& session = twin.session(stream[i].link);
        std::vector<SectorReading> readings = report(i);
        // A round served while in Acquisition is a full sweep: no CSS.
        css_round[i] = session.in_fallback() ? 0 : 1;
        const std::uint64_t a0 = thread_allocations();
        {
          Scoped span(tracer, "session.process_report", phase.id(),
                      static_cast<std::int64_t>(i));
          session.process_report(std::move(readings));
        }
        allocs += thread_allocations() - a0;
      }
    }
    if (!drain_first) drain();
    {
      Scoped phase(tracer, "twin.selectors");
      for (std::size_t i : order) {
        if (css_round[i] == 0) continue;
        Scoped span(tracer, "css.select", phase.id(), static_cast<std::int64_t>(i));
        (void)css.select(report(i), css_ws[static_cast<std::size_t>(stream[i].link)]);
      }
    }
    std::map<std::vector<int>, std::vector<std::size_t>> groups;
    {
      Scoped phase(tracer, "twin.kernel");
      for (std::size_t i : order) {
        if (css_round[i] == 0 || kernel.usable_probe_count(report(i)) < css_config.min_probes) {
          continue;
        }
        {
          Scoped span(tracer, "kernel.argmax", phase.id(), static_cast<std::int64_t>(i));
          (void)kernel.combined_argmax(report(i), kernel_ws[static_cast<std::size_t>(stream[i].link)]);
        }
        {
          Scoped span(tracer, "kernel.surface", phase.id(), static_cast<std::int64_t>(i));
          (void)kernel.combined_surface(report(i));
        }
        std::vector<int> key;
        for (const SectorReading& r : report(i)) key.push_back(r.sector_id);
        groups[key].push_back(i);
      }
    }
    {
      // The batched walk over the cycle's same-subset groups.
      Scoped phase(tracer, "twin.batch");
      for (const auto& [key, members] : groups) {
        group.clear();
        for (std::size_t i : members) group.push_back(report(i));
        batch_out.resize(group.size());
        batch_members += group.size();
        Scoped span(tracer, "kernel.argmax_batch", phase.id(), static_cast<std::int64_t>(c0));
        batch_assets->engine().combined_argmax_batch(group, batch_out, batch_ws);
      }
    }
  }

  // --- checks and per-layer metrics ------------------------------------------
  outcome.tally(burst, burst - std::min(burst, processed), "burst fully drained");
  std::size_t mismatches = 0;
  for (int link = 0; link < kLinks; ++link) {
    const LinkSessionState drained = serve.daemon().session(link).export_state();
    if (!(twin.session(link).export_state() == drained) ||
        !(untraced_twin.session(link).export_state() == drained)) {
      ++mismatches;
    }
  }
  outcome.tally(kLinks, mismatches, "drained state == synchronous twins");

  const double b = static_cast<double>(burst);
  const auto cache1 = drain_assets->engine().response_matrix().cache_stats();
  const double hits = static_cast<double>(cache1.hits - cache0.hits);
  const double misses = static_cast<double>(cache1.misses - cache0.misses);
  outcome.metric("panel.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  outcome.metric("panel.cached",
                 static_cast<double>(drain_assets->engine().response_matrix().cached_subset_count()),
                 "count");
  outcome.metric("serve.submit_ns", tracer.total_s("serve.submit") / b * 1e9, "ns");
  std::size_t growth = 0;
  for (const CorrelationWorkspace& w : css_ws) growth += w.growth_events();
  outcome.metric("workspace.growth_events", static_cast<double>(growth), "count");

  const DegradationStats d = twin.total_degradation_stats();
  outcome.metric("session.withheld_share",
                 static_cast<double>(d.low_confidence_events + d.underfilled_rounds) / b,
                 "ratio");
  outcome.metric("session.full_sweep_share", static_cast<double>(d.full_sweep_rounds) / b,
                 "ratio");
  outcome.metric("session.trips", static_cast<double>(twin.total_lifecycle_stats().trips),
                 "count");
  outcome.metric("alloc.per_report", static_cast<double>(allocs) / b, "count");

  // Per-report attribution: every layer's total divided by the same burst,
  // each layer's self time its total minus that of the layer it calls. The
  // self times and the innermost kernel time therefore add up to the drain
  // time by construction; the split, not the sum, is the measurement. On
  // stateful traffic the session's self time also holds the path tracker's
  // update and re-selection, which the css replay (a plain select) skips.
  const double drain_s = tracer.total_s("serve.drain_all");
  const double session_s = tracer.total_s("session.process_report");
  const double select_s = tracer.total_s("css.select");
  const double kernel_s = tracer.total_s(confidence ? "kernel.surface" : "kernel.argmax");
  outcome.metric("serve.drain_us_per_report", drain_s / b * 1e6, "us");
  outcome.metric("serve.self_us_per_report", (drain_s - session_s) / b * 1e6, "us");
  outcome.metric("session.process_report_us", session_s / b * 1e6, "us");
  outcome.metric("session.self_us", (session_s - select_s) / b * 1e6, "us");
  outcome.metric("css.select_us", select_s / b * 1e6, "us");
  outcome.metric("css.self_us", (select_s - kernel_s) / b * 1e6, "us");
  outcome.metric("kernel.argmax_us", tracer.total_s("kernel.argmax") / b * 1e6, "us");
  outcome.metric("kernel.surface_us", tracer.total_s("kernel.surface") / b * 1e6, "us");
  outcome.metric("kernel.argmax_batch_us_per_member",
                 batch_members > 0
                     ? tracer.total_s("kernel.argmax_batch") / static_cast<double>(batch_members) * 1e6
                     : 0.0,
                 "us");
  outcome.metric("trace.overhead_share",
                 untraced_s > 0 ? tracer.total_s("twin.sessions") / untraced_s - 1.0 : 0.0,
                 "ratio");

  {
    // Panel builds of the burst's first distinct subsets, on a cold cache.
    const auto assets = load_assets(inputs);
    const ResponseMatrix& matrix = assets->engine().response_matrix();
    std::map<std::vector<int>, bool> seen;
    Scoped phase(tracer, "twin.panels");
    for (std::size_t i = 0; i < burst && seen.size() < kPanelBuilds; ++i) {
      std::vector<int> slots;
      for (const SectorReading& r : report(i)) slots.push_back(matrix.slot(r.sector_id));
      if (!seen.emplace(slots, true).second) continue;
      Scoped span(tracer, "panel.build", phase.id(), static_cast<std::int64_t>(i));
      (void)matrix.panel(slots);
    }
    outcome.metric("panel.build_us",
                   tracer.total_s("panel.build") / static_cast<double>(seen.size()) * 1e6, "us");
  }

  tracer.write(options.out_dir + "/trace-" + workload.name + ".json");
}

}  // namespace perfbench
