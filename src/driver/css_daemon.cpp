#include "src/driver/css_daemon.hpp"

#include <functional>
#include <mutex>
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
    : assets_(std::move(assets)),
      current_address_(assets_.get()),
      defaults_(defaults) {
  TALON_EXPECTS(assets_ != nullptr);
}

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
  return insert_session(
      link_id, std::make_unique<LinkSession>(assets(), config, rng, link_id));
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

std::shared_ptr<const PatternAssets> CssDaemon::assets() const {
  std::lock_guard<std::mutex> lock(assets_mutex_);
  return assets_;
}

void CssDaemon::swap_assets(std::shared_ptr<const PatternAssets> next) {
  TALON_EXPECTS(next != nullptr);
  // `next` leaves with the previous generation, after the lock is released.
  std::lock_guard<std::mutex> lock(assets_mutex_);
  assets_.swap(next);
  current_address_.store(assets_.get(), std::memory_order_release);
  swaps_.fetch_add(1, std::memory_order_relaxed);
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
