#include "src/driver/css_daemon.hpp"

#include <functional>
#include <type_traits>

#include "src/common/error.hpp"

namespace talon {

namespace {

/// Sum of one per-session counter struct (`get` reads it off a session)
/// over every session.
template <class Get>
auto sum_sessions(const std::map<int, std::unique_ptr<LinkSession>>& sessions,
                  Get get) {
  std::remove_cvref_t<std::invoke_result_t<Get, const LinkSession&>> total{};
  for (const auto& [id, session] : sessions) total += std::invoke(get, *session);
  return total;
}

}  // namespace

CssDaemon::CssDaemon(std::shared_ptr<const PatternAssets> assets,
                     CssDaemonConfig defaults)
    : epoch_(std::move(assets)), defaults_(defaults) {}

LinkSession& CssDaemon::add_link(int link_id, Wil6210Driver& driver, Rng rng) {
  return add_link(link_id, driver, rng, defaults_);
}

LinkSession& CssDaemon::add_link(int link_id, Wil6210Driver& driver, Rng rng,
                                 const CssDaemonConfig& config) {
  return insert_session(
      link_id,
      std::make_unique<LinkSession>(driver, assets(), config, rng, link_id));
}

LinkSession& CssDaemon::add_headless_link(int link_id, Rng rng) {
  return add_headless_link(link_id, rng, defaults_);
}

LinkSession& CssDaemon::add_headless_link(int link_id, Rng rng,
                                          const CssDaemonConfig& config) {
  return add_headless_link(link_id, rng, config, assets());
}

LinkSession& CssDaemon::add_headless_link(
    int link_id, Rng rng, const CssDaemonConfig& config,
    std::shared_ptr<const PatternAssets> assets) {
  TALON_EXPECTS(assets != nullptr);
  return insert_session(link_id,
                        std::make_unique<LinkSession>(std::move(assets), config,
                                                      rng, link_id));
}

LinkSession& CssDaemon::insert_session(int link_id,
                                       std::unique_ptr<LinkSession> session) {
  auto [it, inserted] = sessions_.emplace(link_id, std::move(session));
  if (!inserted) {
    throw StateError("link id already has a session: " + std::to_string(link_id));
  }
  return *it->second;
}

std::optional<CssResult> CssDaemon::process_report(
    int link_id, std::vector<SectorReading> readings) {
  return session(link_id).process_report(std::move(readings));
}

LinkSession& CssDaemon::session(int link_id) {
  const auto it = sessions_.find(link_id);
  if (it == sessions_.end()) {
    throw StateError("no session for link id " + std::to_string(link_id));
  }
  return *it->second;
}

const LinkSession& CssDaemon::session(int link_id) const {
  const auto it = sessions_.find(link_id);
  if (it == sessions_.end()) {
    throw StateError("no session for link id " + std::to_string(link_id));
  }
  return *it->second;
}

bool CssDaemon::has_session(int link_id) const { return sessions_.contains(link_id); }

std::vector<int> CssDaemon::link_ids() const {
  std::vector<int> ids;
  ids.reserve(sessions_.size());
  for (const auto& [id, session] : sessions_) ids.push_back(id);
  return ids;
}

void CssDaemon::swap_assets(std::shared_ptr<const PatternAssets> next) {
  TALON_EXPECTS(next != nullptr);
  epoch_.swap(std::move(next));
}

bool CssDaemon::joins_batch(const LinkSession& session, const PatternAssets* current) {
  return session.sweep_pending() && !session.in_fallback() &&
         session.assets().get() == current;
}

void CssDaemon::complete_prepared(std::map<int, std::optional<CssResult>>* out) {
  const AssetsEpoch::ReadGuard current = epoch_.read();
  batch_links_.clear();
  batch_sweeps_.clear();
  // Sessions on one assets generation differ only in whether they gate
  // on confidence; the walk computes it when any member does.
  const LinkSession* lead = nullptr;
  for (auto& [id, session] : sessions_) {
    if (!joins_batch(*session, current.get())) continue;
    batch_links_.push_back(session.get());
    batch_sweeps_.emplace_back(session->pending_readings());
    if (lead == nullptr || (session->css().config().compute_confidence &&
                            !lead->css().config().compute_confidence)) {
      lead = session.get();
    }
  }
  if (lead != nullptr) {
    batch_results_.resize(batch_links_.size());
    lead->css().select_batch(batch_sweeps_, current->tx_candidates(), batch_results_,
                             batch_ws_);
  }
  // Complete in session (map) order; batched sessions consume their
  // result (dropping a confidence they did not ask for, so each matches
  // its own selector bit for bit), the rest select on their own.
  std::size_t j = 0;
  for (auto& [id, session] : sessions_) {
    if (!session->sweep_pending()) continue;
    CssResult* batched = nullptr;
    if (joins_batch(*session, current.get())) {
      batched = &batch_results_[j++];
      if (!session->css().config().compute_confidence) batched->confidence = 0.0;
    }
    std::optional<CssResult> result = session->complete_sweep(batched);
    if (out != nullptr) (*out)[id] = std::move(result);
  }
}

std::map<int, std::optional<CssResult>> CssDaemon::process_sweeps() {
  for (auto& [id, session] : sessions_) session->prepare_sweep();
  std::map<int, std::optional<CssResult>> out;
  complete_prepared(&out);
  return out;
}

FaultStats CssDaemon::total_fault_stats() const {
  return sum_sessions(sessions_, &LinkSession::fault_stats);
}

DegradationStats CssDaemon::total_degradation_stats() const {
  return sum_sessions(sessions_, &LinkSession::degradation_stats);
}

LifecycleStats CssDaemon::total_lifecycle_stats() const {
  return sum_sessions(sessions_, &LinkSession::lifecycle_stats);
}

}  // namespace talon
