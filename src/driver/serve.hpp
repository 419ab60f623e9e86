// The asynchronous serving layer over CssDaemon.
//
// CssDaemon is a synchronous library: whoever holds it calls
// process_sweep()/process_report() inline. ServeDaemon turns it into a
// long-running service shaped like a production beam-management daemon
// (Terragraph's per-node firmware agent): station threads SUBMIT sweep
// reports into a lock-free MPSC queue and return immediately; one
// consumer drains the queue, groups the reports per link, and fans the
// per-link selection work out with parallel_for (common/parallel.hpp),
// which starts its helper threads on each call. Three guarantees anchor
// the design:
//
//  * ZERO silent drops -- the bounded queue rejects a push only back to
//    the submitting caller (backpressure), and every accepted report is
//    processed exactly once, including across stop() and hot swaps;
//  * PER-LINK FIFO at N producers -- submit() claims a per-link ticket
//    before enqueueing, and the consumer holds a report back until its
//    ticket is next for that link, so a link's reports are processed in
//    claim order no matter how producer pushes interleave. Processing is
//    therefore bit-identical to feeding the same per-link sequences
//    through the synchronous API, at ANY thread count;
//  * NON-BLOCKING hot reload -- swap_assets() publishes a new
//    PatternAssets generation in the CssDaemon. Before each link's
//    rounds a worker compares the daemon's current address (one acquire
//    load) with its session's own generation and, on a mismatch, rebinds
//    the session. A selection only ever reads the generation its session
//    owns through a shared_ptr, so no table is torn or freed under it,
//    and a retired generation dies when its last session rebinds.
//
// Telemetry: every counter the daemon's layers accumulate -- ingest and
// processing totals, dropped readings, every field of the fault,
// degradation, lifecycle and panel-cache counter structs (named from
// their field lists, common/fields.hpp), and the selection latency
// histogram -- is exported through a TelemetryRegistry in the text
// exposition format (scrape()).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/mpsc_queue.hpp"
#include "src/driver/css_daemon.hpp"
#include "src/driver/telemetry.hpp"

namespace talon {

/// One ingested sweep report: a training round's readings for one link.
struct SweepReport {
  int link_id{0};
  std::vector<SectorReading> readings;
  /// Per-link FIFO ticket, stamped by submit().
  std::uint64_t seq{0};
  /// steady_clock nanoseconds at submission (0 = latency not measured).
  std::uint64_t submit_ns{0};
};

struct ServeConfig {
  /// Ingest queue slots (rounded up to a power of two).
  std::size_t queue_capacity{4096};
  /// Worker threads for the per-link selection fan-out; <= 0 uses
  /// default_thread_count() (the --threads / TALON_THREADS plumbing).
  int threads{0};
  /// Max reports popped per drain cycle before the cycle's links are
  /// processed (bounds per-cycle memory and keeps latency bounded under
  /// a full queue).
  std::size_t drain_batch{1024};
  /// Stamp reports with the submission time and record the selection
  /// latency histogram. Off = the telemetry output is fully
  /// deterministic (the determinism tests compare scrapes byte for
  /// byte).
  bool measure_latency{true};
  /// Also publish per-link series (rounds, lifecycle state) at scrape
  /// time. Off by default: at 10k links the text output gets large.
  bool per_link_metrics{false};
};

class ServeDaemon {
 public:
  ServeDaemon(std::shared_ptr<const PatternAssets> assets,
              CssDaemonConfig session_defaults = {}, ServeConfig config = {});
  ~ServeDaemon();

  ServeDaemon(const ServeDaemon&) = delete;
  ServeDaemon& operator=(const ServeDaemon&) = delete;

  /// The wrapped synchronous daemon (tests compare against driving it
  /// directly). Do not mutate sessions while the consumer runs.
  CssDaemon& daemon() { return daemon_; }
  const CssDaemon& daemon() const { return daemon_; }

  /// Register a headless link. Only while the consumer is stopped.
  LinkSession& add_link(int link_id, Rng rng);
  LinkSession& add_link(int link_id, Rng rng, const CssDaemonConfig& config);

  // --- ingest ---------------------------------------------------------------

  /// Submit one report; false when the queue is full (the report is NOT
  /// consumed -- retry or shed). Callable from any number of threads.
  bool try_submit(int link_id, std::vector<SectorReading> readings);

  /// Submit, yielding until the queue accepts (requires a running
  /// consumer to guarantee progress).
  void submit(int link_id, std::vector<SectorReading> readings);

  // --- consumer -------------------------------------------------------------

  /// Start the consumer thread. No-op when already running.
  void start();

  /// Stop the consumer: processes everything already accepted, then
  /// joins. Reports submitted after stop() begins may remain queued (a
  /// later start() or drain_all() picks them up).
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Drain and process every queued report on the CALLING thread; the
  /// consumer must be stopped (single-consumer discipline). Returns the
  /// number of reports processed. This is the deterministic test
  /// harness's consumer.
  std::size_t drain_all();

  // --- hot reload -----------------------------------------------------------

  /// Publish a new assets generation; selection threads rebind lazily
  /// between rounds, without stalling. Safe while the consumer runs.
  void swap_assets(std::shared_ptr<const PatternAssets> next);

  std::shared_ptr<const PatternAssets> current_assets() const {
    return daemon_.assets();
  }

  /// Swap count so far.
  std::uint64_t assets_epoch() const { return daemon_.swap_count(); }

  // --- observability --------------------------------------------------------

  std::uint64_t submitted() const {
    return submitted_.load(std::memory_order_relaxed);
  }
  std::uint64_t processed() const {
    return processed_.load(std::memory_order_relaxed);
  }
  /// try_submit() rejections (accepted reports are never dropped).
  std::uint64_t rejected() const {
    return rejected_.load(std::memory_order_relaxed);
  }
  /// Sessions rebound to a new assets generation.
  std::uint64_t rebinds() const {
    return rebinds_.load(std::memory_order_relaxed);
  }

  TelemetryRegistry& telemetry() { return telemetry_; }

  /// Publish the current session aggregates into the registry and render
  /// the whole registry as `name{labels} value` text.
  std::string scrape();

 private:
  /// Consumer-side per-link reorder state (only the consumer touches it).
  struct LinkIngest {
    int link_id{0};
    /// Next ticket to process for this link.
    std::uint64_t next_seq{0};
    /// Reports that arrived ahead of their ticket.
    std::map<std::uint64_t, SweepReport> stash;
    /// In-order reports released for the current cycle.
    std::vector<SweepReport> ready;
    bool in_cycle{false};
  };

  /// Give a newly added session its ticket counter and reorder state.
  LinkSession& register_link(int link_id, LinkSession& session);
  void enqueue(SweepReport report);
  void route(SweepReport report);
  std::size_t drain_cycle();
  void process_link(LinkIngest& ingest);
  void run_consumer();
  void publish_session_metrics();

  CssDaemon daemon_;
  ServeConfig config_;
  MpscQueue<SweepReport> queue_;
  TelemetryRegistry telemetry_;
  /// The selection latency histogram, resolved once at construction;
  /// null when config_.measure_latency is off.
  LatencyHistogram* latency_{nullptr};

  /// Per-link producer-side ticket counters; the map is frozen while the
  /// consumer runs (add_link requires stopped), so producers only ever
  /// read it.
  std::unordered_map<int, std::unique_ptr<std::atomic<std::uint64_t>>> claims_;
  /// Consumer-side reorder state, same freeze discipline.
  std::unordered_map<int, LinkIngest> ingest_;
  /// Links with ready reports in the current drain cycle.
  std::vector<LinkIngest*> cycle_links_;

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> processed_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> rebinds_{0};
  std::atomic<std::uint64_t> drain_cycles_{0};

  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::thread consumer_;
  /// Serializes the consumer's processing phase against scrape()'s walk
  /// over the sessions (one lock per cycle, not per report).
  std::mutex cycle_mutex_;
};

}  // namespace talon
