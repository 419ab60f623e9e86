#include "src/driver/serve.hpp"

#include <chrono>
#include <string_view>
#include <type_traits>

#include "src/common/error.hpp"
#include "src/common/fields.hpp"
#include "src/common/parallel.hpp"

namespace talon {
namespace {

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string link_label(int link_id) {
  return "link=\"" + std::to_string(link_id) + "\"";
}

/// Export every field of a counter struct from its field list as
/// serve_<family>_<name>: integer fields as `_total` counters, doubles as
/// gauges. A labelled entry is one series of that family.
template <class Stats>
void publish_fields(TelemetryRegistry& registry, std::string_view family,
                    const Stats& stats) {
  for_each_field(stats, [&](const auto& entry, const auto& value) {
    const std::string name = "serve_" + std::string(family) + "_" + entry.name;
    if constexpr (std::is_integral_v<std::remove_cvref_t<decltype(value)>>) {
      registry.counter(name + "_total", entry.label).set(value);
    } else {
      registry.gauge(name, entry.label).set(value);
    }
  });
}

}  // namespace

ServeDaemon::ServeDaemon(std::shared_ptr<const PatternAssets> assets,
                         CssDaemonConfig session_defaults, ServeConfig config)
    : daemon_(std::move(assets), session_defaults),
      config_(config),
      queue_(config.queue_capacity) {
  if (config_.measure_latency) {
    latency_ = &telemetry_.histogram("serve_selection_latency_us");
  }
}

ServeDaemon::~ServeDaemon() { stop(); }

LinkSession& ServeDaemon::add_link(int link_id, Rng rng) {
  if (running()) {
    throw StateError("add_link requires a stopped consumer");
  }
  // Register against the CURRENT assets generation so links added after
  // a hot swap never start on a retired table.
  return register_link(link_id, daemon_.add_headless_link(link_id, rng));
}

LinkSession& ServeDaemon::add_link(int link_id, Rng rng,
                                   const CssDaemonConfig& config) {
  if (running()) {
    throw StateError("add_link requires a stopped consumer");
  }
  return register_link(link_id,
                       daemon_.add_headless_link(link_id, rng, config));
}

LinkSession& ServeDaemon::register_link(int link_id, LinkSession& session) {
  claims_.emplace(link_id, std::make_unique<std::atomic<std::uint64_t>>(0));
  ingest_[link_id].link_id = link_id;
  return session;
}

void ServeDaemon::enqueue(SweepReport report) {
  auto it = claims_.find(report.link_id);
  if (it == claims_.end()) {
    throw StateError("no serving session for link id " +
                     std::to_string(report.link_id));
  }
  // Claim the per-link FIFO ticket, then push until the queue takes it.
  // The claim-before-push order is what the consumer's reorder buffer
  // relies on: every claimed ticket is eventually pushed, so a gap in
  // the arrival order is always transient.
  report.seq = it->second->fetch_add(1, std::memory_order_relaxed);
  if (config_.measure_latency) report.submit_ns = steady_now_ns();
  while (!queue_.try_push(report)) {
    std::this_thread::yield();
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
}

bool ServeDaemon::try_submit(int link_id, std::vector<SectorReading> readings) {
  // The fullness probe runs BEFORE the ticket claim: once claimed, the
  // push must complete (see enqueue), so rejection must happen here.
  // approx_size is a snapshot -- a racing burst can still force enqueue
  // to spin briefly -- but a full queue is reliably rejected.
  if (queue_.approx_size() >= queue_.capacity()) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  SweepReport report;
  report.link_id = link_id;
  report.readings = std::move(readings);
  enqueue(std::move(report));
  return true;
}

void ServeDaemon::submit(int link_id, std::vector<SectorReading> readings) {
  SweepReport report;
  report.link_id = link_id;
  report.readings = std::move(readings);
  enqueue(std::move(report));
}

void ServeDaemon::route(SweepReport report) {
  auto it = ingest_.find(report.link_id);
  TALON_EXPECTS(it != ingest_.end());
  LinkIngest& ingest = it->second;
  if (report.seq != ingest.next_seq) {
    // Arrived ahead of a ticket still being pushed; hold it back.
    ingest.stash.emplace(report.seq, std::move(report));
    return;
  }
  ingest.ready.push_back(std::move(report));
  ++ingest.next_seq;
  // Release any successors the stash was holding.
  for (auto next = ingest.stash.find(ingest.next_seq);
       next != ingest.stash.end();
       next = ingest.stash.find(ingest.next_seq)) {
    ingest.ready.push_back(std::move(next->second));
    ingest.stash.erase(next);
    ++ingest.next_seq;
  }
  if (!ingest.in_cycle) {
    ingest.in_cycle = true;
    cycle_links_.push_back(&ingest);
  }
}

void ServeDaemon::process_link(LinkIngest& ingest) {
  LinkSession& session = daemon_.session(ingest.link_id);
  // Staleness check: one acquire load compared with the session's own
  // generation. Rebinding copies the current shared_ptr under the
  // daemon's mutex, once per swap per link.
  if (daemon_.current_assets_address() != session.assets().get()) {
    session.rebind_assets(daemon_.assets());
    rebinds_.fetch_add(1, std::memory_order_relaxed);
  }
  for (SweepReport& report : ingest.ready) {
    session.process_report(std::move(report.readings));
    processed_.fetch_add(1, std::memory_order_relaxed);
    if (latency_ != nullptr && report.submit_ns != 0) {
      const std::uint64_t now = steady_now_ns();
      const std::uint64_t delta_ns =
          now > report.submit_ns ? now - report.submit_ns : 0;
      latency_->observe_us(delta_ns / 1000);
    }
  }
  ingest.ready.clear();
  ingest.in_cycle = false;
}

std::size_t ServeDaemon::drain_cycle() {
  cycle_links_.clear();
  SweepReport report;
  std::size_t popped = 0;
  while (popped < config_.drain_batch && queue_.try_pop(report)) {
    ++popped;
    route(std::move(report));
  }
  if (!cycle_links_.empty()) {
    std::lock_guard<std::mutex> lock(cycle_mutex_);
    drain_cycles_.fetch_add(1, std::memory_order_relaxed);
    // Fan the cycle's links out with parallel_for. Each link is owned by
    // exactly one index, its reports already in ticket order, so the
    // outcome is independent of the thread count.
    parallel_for(
        cycle_links_.size(),
        [this](std::size_t i) { process_link(*cycle_links_[i]); },
        ParallelOptions{.threads = config_.threads});
  }
  return popped;
}

void ServeDaemon::run_consumer() {
  while (!stop_requested_.load(std::memory_order_acquire)) {
    if (drain_cycle() == 0) {
      // Idle: brief sleep instead of a busy spin. Latency floor ~50us,
      // well under one bucket of the latency histogram's working range.
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  // Stop processes everything already accepted: drain until dry.
  while (drain_cycle() != 0) {
  }
}

void ServeDaemon::start() {
  if (running()) return;
  stop_requested_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  consumer_ = std::thread([this] { run_consumer(); });
}

void ServeDaemon::stop() {
  if (!running()) return;
  stop_requested_.store(true, std::memory_order_release);
  consumer_.join();
  running_.store(false, std::memory_order_release);
}

std::size_t ServeDaemon::drain_all() {
  if (running()) {
    throw StateError("drain_all requires a stopped consumer");
  }
  const std::uint64_t before = processed();
  while (drain_cycle() != 0) {
  }
  return static_cast<std::size_t>(processed() - before);
}

void ServeDaemon::swap_assets(std::shared_ptr<const PatternAssets> next) {
  daemon_.swap_assets(std::move(next));
  telemetry_.counter("serve_assets_swaps_total").inc();
}

void ServeDaemon::publish_session_metrics() {
  // Ingest-path counters (mirrors of the daemon's atomics, so one scrape
  // carries everything).
  telemetry_.counter("serve_reports_submitted_total").set(submitted());
  telemetry_.counter("serve_reports_processed_total").set(processed());
  telemetry_.counter("serve_reports_rejected_total").set(rejected());
  telemetry_.counter("serve_assets_rebinds_total").set(rebinds());
  telemetry_.counter("serve_drain_cycles_total")
      .set(drain_cycles_.load(std::memory_order_relaxed));
  telemetry_.gauge("serve_queue_depth").set(static_cast<double>(queue_.approx_size()));
  telemetry_.gauge("serve_links").set(static_cast<double>(daemon_.session_count()));

  // Aggregate session state: selection rounds, dropped readings and
  // every field of the fault, degradation, lifecycle (time in state in
  // rounds) and panel-cache counter structs.
  std::uint64_t rounds = 0;
  std::uint64_t dropped_probes = 0;
  for (int id : daemon_.link_ids()) {
    const LinkSession& session = daemon_.session(id);
    rounds += session.rounds();
    dropped_probes += session.dropped_probes();
  }
  telemetry_.counter("serve_rounds_total").set(rounds);
  telemetry_.counter("serve_dropped_probes_total").set(dropped_probes);
  publish_fields(telemetry_, "fault", daemon_.total_fault_stats());
  publish_fields(telemetry_, "degradation", daemon_.total_degradation_stats());
  publish_fields(telemetry_, "lifecycle", daemon_.total_lifecycle_stats());

  // Panel-cache traffic of the current assets generation.
  const auto cache = daemon_.assets()->engine().response_matrix().cache_stats();
  publish_fields(telemetry_, "panel_cache", cache);
  const std::uint64_t lookups = cache.hits + cache.misses;
  telemetry_.gauge("serve_panel_cache_hit_rate")
      .set(lookups == 0 ? 0.0
                        : static_cast<double>(cache.hits) /
                              static_cast<double>(lookups));

  if (config_.per_link_metrics) {
    for (int id : daemon_.link_ids()) {
      const LinkSession& session = daemon_.session(id);
      const std::string label = link_label(id);
      telemetry_.counter("serve_link_rounds_total", label).set(session.rounds());
      telemetry_.gauge("serve_link_state", label)
          .set(static_cast<double>(
              static_cast<std::uint8_t>(session.lifecycle().state())));
      if (session.last_installed_sector()) {
        telemetry_.gauge("serve_link_sector", label)
            .set(static_cast<double>(*session.last_installed_sector()));
      }
    }
  }
}

std::string ServeDaemon::scrape() {
  // One lock serializes the session walk against the consumer's
  // processing phase; the counters themselves are atomics.
  std::lock_guard<std::mutex> lock(cycle_mutex_);
  publish_session_metrics();
  return telemetry_.render();
}

}  // namespace talon
