#include "src/driver/link_session.hpp"

#include <iostream>
#include <utility>

#include "src/antenna/codebook.hpp"
#include "src/common/error.hpp"
#include "src/core/ssw.hpp"

namespace talon {

namespace {

CssConfig session_css_config(const CssDaemonConfig& config) {
  CssConfig css;
  // Confidence gating needs the peak-to-second-peak ratio (the walk's
  // rival); without degradation the walk prunes against the peak alone.
  css.compute_confidence = config.degradation.enabled;
  return css;
}

LinkLifecycleConfig session_lifecycle_config(const DegradationConfig& d) {
  LinkLifecycleConfig lifecycle;
  lifecycle.max_consecutive_failures = d.max_consecutive_failures;
  lifecycle.recovery_rounds = d.recovery_rounds;
  lifecycle.max_recovery_backoff = d.max_recovery_backoff;
  return lifecycle;
}

}  // namespace

LinkSession::LinkSession(Wil6210Driver& driver,
                         std::shared_ptr<const PatternAssets> assets,
                         const CssDaemonConfig& config, Rng rng, int link_id)
    : LinkSession(&driver, std::move(assets), config, rng, link_id) {}

LinkSession::LinkSession(std::shared_ptr<const PatternAssets> assets,
                         const CssDaemonConfig& config, Rng rng, int link_id)
    : LinkSession(nullptr, std::move(assets), config, rng, link_id) {}

LinkSession::LinkSession(Wil6210Driver* driver,
                         std::shared_ptr<const PatternAssets> assets,
                         const CssDaemonConfig& config, Rng rng, int link_id)
    : driver_(driver),
      css_(std::move(assets), session_css_config(config)),
      config_(config),
      controller_(config.adaptive_config),
      rng_(rng),
      link_id_(link_id),
      lifecycle_(session_lifecycle_config(config.degradation), LinkState::kUp) {
  if (config_.track_path) tracker_.emplace(config_.tracker_config);
  if (config_.faults && config_.faults->any_enabled()) {
    injector_ = std::make_shared<LinkFaultInjector>(config_.faults, link_id_);
    // The firmware draws the ring-buffer faults from the same injector, so
    // one (plan, link) pair fully determines the link's fault sequence.
    if (driver_ != nullptr) driver_->install_fault_injector(injector_);
  }
  if (driver_ != nullptr && !driver_->research_patches_loaded()) {
    driver_->load_research_patches();
  }
}

void LinkSession::rebind_assets(std::shared_ptr<const PatternAssets> next) {
  TALON_EXPECTS(next != nullptr);
  if (next == css_.assets()) return;
  css_ = CompressiveSectorSelector(std::move(next), session_css_config(config_));
  // The workspace's cached panel is keyed only by the probe-slot
  // sequence, which a new table with the same slots would silently alias.
  ws_ = CorrelationWorkspace();
}

const std::optional<Direction>& LinkSession::tracked_direction() const {
  static const std::optional<Direction> kNone;
  return tracker_ ? tracker_->current() : kNone;
}

std::size_t LinkSession::current_probes() const {
  return config_.adaptive ? controller_.current_probes() : config_.probes;
}

std::vector<int> LinkSession::next_probe_subset() {
  if (in_fallback()) {
    // Degraded: probe every transmit sector, like a stock SSW sweep. No
    // policy draw, so the CSS subset stream stays aligned for recovery.
    return talon_tx_sector_ids();
  }
  return policy_.choose(talon_tx_sector_ids(), current_probes(), rng_);
}

void LinkSession::note_unknown_sectors(std::span<const SectorReading> readings) {
  const ResponseMatrix& matrix = css_.assets()->engine().response_matrix();
  for (const SectorReading& r : readings) {
    if (matrix.slot(r.sector_id) >= 0) continue;
    ++dropped_probes_;
    if (warned_unknown_.contains(r.sector_id)) continue;
    if (warned_unknown_.size() >= kMaxWarnedUnknownIds) {
      if (!warn_cap_announced_) {
        warn_cap_announced_ = true;
        std::cerr << "talon: link session: over " << kMaxWarnedUnknownIds
                  << " distinct unknown sector IDs; suppressing further "
                     "warnings (dropped_probes() keeps counting)\n";
      }
      continue;
    }
    warned_unknown_.insert(r.sector_id);
    std::cerr << "talon: link session: sweep reported sector " << r.sector_id
              << " with no measured pattern; its readings are dropped\n";
  }
}

void LinkSession::apply_reading_faults(std::vector<SectorReading>& readings) {
  const FaultPlan& plan = injector_->plan();
  if (plan.loss.probability > 0.0 || plan.burst.enabled) {
    // In-order compaction: the Gilbert-Elliott chain must see the frames
    // in sweep order for bursts to mean consecutive probes.
    std::size_t out = 0;
    for (std::size_t i = 0; i < readings.size(); ++i) {
      if (!injector_->drop_probe()) readings[out++] = readings[i];
    }
    readings.resize(out);
  }
  const SignalCorruptionConfig& c = plan.corruption;
  if (c.snr_outlier_probability > 0.0 || c.rssi_outlier_probability > 0.0 ||
      c.floor_clamp_probability > 0.0) {
    for (SectorReading& r : readings) {
      injector_->corrupt_reading(r.snr_db, r.rssi_dbm);
    }
  }
}

void LinkSession::deliver_selection(int sector_id) {
  last_installed_sector_ = sector_id;
  if (driver_ != nullptr) driver_->force_sector(sector_id);
}

bool LinkSession::install_selection(int sector_id) {
  if (!injector_ || !injector_->plan().feedback.any()) {
    deliver_selection(sector_id);
    return true;
  }
  const FeedbackFaultConfig& fb = injector_->plan().feedback;
  for (int attempt = 0; attempt <= fb.max_retries; ++attempt) {
    if (attempt > 0) {
      injector_->note_feedback_retry(
          fb.backoff_base_us * static_cast<double>(1u << (attempt - 1)));
    }
    if (!injector_->drop_feedback_attempt()) {
      injector_->feedback_delay_us();
      deliver_selection(sector_id);
      return true;
    }
  }
  injector_->note_feedback_failure();
  return false;  // every attempt lost; the previous override stays
}

void LinkSession::finish_round(bool healthy, bool full_sweep_round) {
  if (injector_) injector_->next_round();
  if (!config_.degradation.enabled) return;
  // The round just served accrues in the state it was served IN (a
  // fallback round counts as Acquisition time even when it is the one
  // that drains the window).
  lifecycle_.advance(1.0);
  if (full_sweep_round) {
    ++degradation_stats_.full_sweep_rounds;
    lifecycle_.apply(LinkEvent::kAcquireRound);
    return;
  }
  if (healthy) {
    ++degradation_stats_.css_rounds;
    lifecycle_.apply(LinkEvent::kHealthy);
    return;
  }
  ++degradation_stats_.failed_rounds;
  const std::uint64_t trips_before = lifecycle_.stats().trips;
  lifecycle_.apply(LinkEvent::kFailure);
  if (lifecycle_.stats().trips != trips_before) {
    ++degradation_stats_.fallback_entries;
  }
}

std::optional<CssResult> LinkSession::process_sweep() {
  TALON_EXPECTS(driver_ != nullptr);
  return process_report(driver_->read_sweep_readings());
}

void LinkSession::drop_unusable_readings(std::vector<SectorReading>& readings) {
  const CorrelationEngine& engine = css_.assets()->engine();
  const auto unusable = [&](const SectorReading& r) {
    return !engine.numerically_usable(r);
  };
  dropped_probes_ += static_cast<std::size_t>(std::erase_if(readings, unusable));
}

std::optional<CssResult> LinkSession::process_report(
    std::vector<SectorReading> readings) {
  ++rounds_;
  const bool full_sweep_round = in_fallback();
  drop_unusable_readings(readings);
  if (injector_) apply_reading_faults(readings);
  if (readings.empty()) {
    finish_round(/*healthy=*/false, full_sweep_round);
    return std::nullopt;
  }
  note_unknown_sectors(readings);
  CssResult result;
  if (full_sweep_round) {
    // The degradation target: the stock argmax over whatever was received.
    const SswSelection ssw = sweep_select(readings);
    result.valid = ssw.valid;
    result.sector_id = ssw.sector_id;
  } else {
    result = css_.select(readings, ws_);
    if (tracker_ && result.valid && result.estimated_direction) {
      // Re-run Eq. 4 on the smoothed direction instead of this sweep's raw
      // estimate.
      const Direction tracked = tracker_->update(*result.estimated_direction);
      result.sector_id =
          css_.patterns().best_sector_at(tracked, css_.assets()->tx_candidates());
      result.estimated_direction = tracked;
    }
  }
  bool healthy = result.valid && !result.fallback_used;
  bool withhold = false;
  if (!full_sweep_round && config_.degradation.enabled && result.valid) {
    // Distrusted estimates are reported but NOT installed: the link keeps
    // its current beam -- the standing override, or the firmware's own
    // argmax when none was installed yet -- instead of being steered by a
    // guess. Repeats of this trip the full-sweep fallback. Two triggers:
    // a sweep that lost too many probes under-determines Eq. 5 (a sparse
    // surface can look confidently peaked while pointing anywhere -- and
    // the css-internal argmax over 1-2 survivors is no better, so this
    // guard applies to fallback_used results too), and a flat or
    // multi-modal surface fails the peak-to-second-peak bar.
    if (static_cast<double>(readings.size()) <
        config_.degradation.min_probe_fraction *
            static_cast<double>(current_probes())) {
      ++degradation_stats_.underfilled_rounds;
      healthy = false;
      withhold = true;
    } else if (healthy && result.confidence < config_.degradation.min_confidence) {
      ++degradation_stats_.low_confidence_events;
      healthy = false;
      withhold = true;
    }
  }
  if (!result.valid) {
    finish_round(/*healthy=*/false, full_sweep_round);
    return std::nullopt;
  }
  if (!withhold && !install_selection(result.sector_id)) healthy = false;
  if (config_.adaptive) controller_.report_selection(result.sector_id);
  finish_round(healthy, full_sweep_round);
  return result;
}

LinkSessionState LinkSession::export_state() const {
  LinkSessionState state;
  state.link_id = link_id_;
  state.rounds = rounds_;
  state.dropped_probes = dropped_probes_;
  state.warned_unknown.assign(warned_unknown_.begin(), warned_unknown_.end());
  state.warn_cap_announced = warn_cap_announced_;
  state.rng_state = rng_.save_state();
  state.controller = controller_.export_state();
  state.lifecycle = lifecycle_.export_state();
  state.degradation = degradation_stats_;
  if (tracker_) state.tracker = tracker_->export_state();
  if (injector_ != nullptr) state.injector = injector_->export_state();
  state.last_installed_sector = last_installed_sector_;
  return state;
}

void LinkSession::import_state(const LinkSessionState& state) {
  if (state.link_id != link_id_) {
    throw SnapshotError("snapshot state for link " +
                        std::to_string(state.link_id) +
                        " imported into session for link " +
                        std::to_string(link_id_));
  }
  if (state.tracker.has_value() != tracker_.has_value()) {
    throw SnapshotError(
        "snapshot tracker state does not match the session's track_path "
        "configuration");
  }
  if (state.injector.has_value() != (injector_ != nullptr)) {
    throw SnapshotError(
        "snapshot fault-injector state does not match the session's fault "
        "plan");
  }
  rounds_ = state.rounds;
  dropped_probes_ = state.dropped_probes;
  warned_unknown_.clear();
  warned_unknown_.insert(state.warned_unknown.begin(),
                         state.warned_unknown.end());
  warn_cap_announced_ = state.warn_cap_announced;
  rng_.restore_state(state.rng_state);
  controller_.import_state(state.controller);
  lifecycle_.import_state(state.lifecycle);
  degradation_stats_ = state.degradation;
  if (tracker_) tracker_->import_state(*state.tracker);
  if (injector_ != nullptr) injector_->import_state(*state.injector);
  last_installed_sector_ = state.last_installed_sector;
}

}  // namespace talon
