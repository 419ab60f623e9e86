// The user-space selection service: what the paper's evaluation scripts do
// after every probing sweep (Sec. 6.1), packaged as a long-running
// component. One daemon serves MANY links: it holds the shared immutable
// PatternAssets once and owns a map of LinkSessions, each bound to one
// Wil6210Driver (one chip) and carrying only that link's mutable state
// (subset policy, adaptive controller, tracker, RNG, round counter).
// After each training round the owning session drains the sweep info
// through its driver, runs compressive selection on the shared assets,
// installs the result via the sector override, and optionally lets the
// adaptive controller pick the next round's probe count.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "src/core/pattern_assets.hpp"
#include "src/driver/link_session.hpp"
#include "src/driver/wil6210.hpp"

namespace talon {

class CssDaemon {
 public:
  /// Multi-link daemon over pre-built shared assets; add links with
  /// add_link(). `defaults` seeds the per-link config of sessions added
  /// without an explicit one.
  explicit CssDaemon(std::shared_ptr<const PatternAssets> assets,
                     CssDaemonConfig defaults = {});

  // --- session management ---------------------------------------------------

  /// Create and own the session serving `driver` under `link_id` with the
  /// daemon's default config. Throws StateError when the id is taken.
  LinkSession& add_link(int link_id, Wil6210Driver& driver, Rng rng);

  /// Same with a per-link config override.
  LinkSession& add_link(int link_id, Wil6210Driver& driver, Rng rng,
                        const CssDaemonConfig& config);

  /// Create and own a HEADLESS session (no chip; report-driven, see
  /// LinkSession's headless mode) under `link_id`, riding the daemon's
  /// current assets generation. This is what the serving layer registers
  /// by the thousands.
  LinkSession& add_headless_link(int link_id, Rng rng);
  LinkSession& add_headless_link(int link_id, Rng rng,
                                 const CssDaemonConfig& config);

  /// Feed one externally produced sweep report to `link_id`'s session
  /// (LinkSession::process_report). Throws StateError when absent.
  std::optional<CssResult> process_report(int link_id,
                                          std::vector<SectorReading> readings);

  /// The session serving `link_id`; throws StateError when absent.
  LinkSession& session(int link_id);
  const LinkSession& session(int link_id) const;

  bool has_session(int link_id) const;
  std::size_t session_count() const { return sessions_.size(); }

  /// Registered link ids, ascending (snapshot/serve iteration order).
  std::vector<int> link_ids() const;

  // --- assets generations ----------------------------------------------------

  /// The current assets generation (never null), copied under a mutex.
  /// The daemon owns it; sessions hold the generation they were built or
  /// last rebound on.
  std::shared_ptr<const PatternAssets> assets() const;

  /// Address of the current generation, for a staleness check without a
  /// lock or refcount traffic: compare it with a session's own
  /// `assets().get()` and never dereference it. The compare is ABA-free
  /// because the session's shared_ptr keeps its generation, and with it
  /// that address, alive.
  const PatternAssets* current_assets_address() const {
    return current_address_.load(std::memory_order_acquire);
  }

  /// Number of swap_assets() calls so far.
  std::uint64_t swap_count() const { return swaps_.load(std::memory_order_relaxed); }

  /// Publish `next` as the current generation and drop the daemon's
  /// reference to the previous one, which dies when the last session
  /// riding it rebinds (LinkSession::rebind_assets). Links added
  /// afterwards start on `next`. Safe while other threads read assets().
  void swap_assets(std::shared_ptr<const PatternAssets> next);

  // --- robustness observability ---------------------------------------------

  /// Sum of all sessions' fault counters (robustness campaign); all zero
  /// when no session carries a fault plan.
  FaultStats total_fault_stats() const;

  /// Sum of all sessions' degradation counters.
  DegradationStats total_degradation_stats() const;

  /// Sum of all sessions' lifecycle transition counters and time-in-state
  /// aggregates (unit: rounds); zero unless degradation is enabled.
  LifecycleStats total_lifecycle_stats() const;

 private:
  LinkSession& insert_session(int link_id, std::unique_ptr<LinkSession> session);

  mutable std::mutex assets_mutex_;
  std::shared_ptr<const PatternAssets> assets_;
  std::atomic<const PatternAssets*> current_address_;
  std::atomic<std::uint64_t> swaps_{0};
  CssDaemonConfig defaults_;
  /// Keyed by link id; unique_ptr keeps session addresses stable across
  /// insertions (sessions hand out references).
  std::map<int, std::unique_ptr<LinkSession>> sessions_;
};

}  // namespace talon
