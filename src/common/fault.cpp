#include "src/common/fault.hpp"

#include <algorithm>

#include "src/common/error.hpp"

namespace talon {

namespace {

// Substream stream tags of the fault layer, from the uniqueness-checked
// registry in common/rng.hpp (see the tag map in fault.hpp).
constexpr std::uint64_t kLossStream = streams::kFaultLoss;
constexpr std::uint64_t kCorruptionStream = streams::kFaultCorruption;
constexpr std::uint64_t kRingStream = streams::kFaultRing;
constexpr std::uint64_t kFeedbackStream = streams::kFaultFeedback;

Rng category_rng(const FaultPlan& plan, std::uint64_t tag, int link_id,
                 std::uint64_t round) {
  return Rng(substream_seed(plan.seed, tag, static_cast<std::uint64_t>(link_id),
                            round));
}

}  // namespace

bool FaultPlan::any_enabled() const {
  return loss.probability > 0.0 || burst.enabled ||
         corruption.snr_outlier_probability > 0.0 ||
         corruption.rssi_outlier_probability > 0.0 ||
         corruption.floor_clamp_probability > 0.0 ||
         ring.duplicate_probability > 0.0 || ring.stale_probability > 0.0 ||
         (ring.overflow_probability > 0.0 && ring.overflow_burst > 0) ||
         feedback.any();
}

LinkFaultInjector::LinkFaultInjector(std::shared_ptr<const FaultPlan> plan,
                                     int link_id)
    : plan_(std::move(plan)),
      link_id_(link_id),
      loss_rng_(0),
      corruption_rng_(0),
      ring_rng_(0),
      feedback_rng_(0) {
  TALON_EXPECTS(plan_ != nullptr);
  reseed();
}

void LinkFaultInjector::reseed() {
  loss_rng_ = category_rng(*plan_, kLossStream, link_id_, state_.round);
  corruption_rng_ = category_rng(*plan_, kCorruptionStream, link_id_, state_.round);
  ring_rng_ = category_rng(*plan_, kRingStream, link_id_, state_.round);
  feedback_rng_ = category_rng(*plan_, kFeedbackStream, link_id_, state_.round);
}

void LinkFaultInjector::next_round() {
  ++state_.round;
  reseed();
}

bool LinkFaultInjector::drop_probe() {
  bool lost = false;
  if (plan_->loss.probability > 0.0 &&
      loss_rng_.bernoulli(plan_->loss.probability)) {
    lost = true;
  }
  if (plan_->burst.enabled) {
    // Advance the chain, then draw the current state's loss.
    if (state_.ge_bad) {
      if (loss_rng_.bernoulli(plan_->burst.p_bad_to_good)) state_.ge_bad = false;
    } else {
      if (loss_rng_.bernoulli(plan_->burst.p_good_to_bad)) state_.ge_bad = true;
    }
    const double p = state_.ge_bad ? plan_->burst.loss_in_bad : plan_->burst.loss_in_good;
    if (p > 0.0 && loss_rng_.bernoulli(p)) {
      if (!lost) ++state_.stats.burst_losses;
      lost = true;
    }
  }
  if (lost) ++state_.stats.probes_lost;
  return lost;
}

void LinkFaultInjector::corrupt_reading(double& snr_db, double& rssi_dbm) {
  const SignalCorruptionConfig& c = plan_->corruption;
  if (c.snr_outlier_probability > 0.0 &&
      corruption_rng_.bernoulli(c.snr_outlier_probability)) {
    snr_db += corruption_rng_.uniform(-c.outlier_magnitude_db, c.outlier_magnitude_db);
    ++state_.stats.snr_outliers;
  }
  if (c.rssi_outlier_probability > 0.0 &&
      corruption_rng_.bernoulli(c.rssi_outlier_probability)) {
    rssi_dbm += corruption_rng_.uniform(-c.outlier_magnitude_db, c.outlier_magnitude_db);
    ++state_.stats.rssi_outliers;
  }
  if (c.floor_clamp_probability > 0.0 &&
      corruption_rng_.bernoulli(c.floor_clamp_probability)) {
    snr_db = c.floor_db;
    ++state_.stats.floor_clamps;
  }
}

bool LinkFaultInjector::inject_duplicate() {
  if (plan_->ring.duplicate_probability <= 0.0) return false;
  if (!ring_rng_.bernoulli(plan_->ring.duplicate_probability)) return false;
  ++state_.stats.ring_duplicates;
  return true;
}

bool LinkFaultInjector::inject_stale() {
  if (plan_->ring.stale_probability <= 0.0) return false;
  if (!ring_rng_.bernoulli(plan_->ring.stale_probability)) return false;
  ++state_.stats.ring_stale;
  return true;
}

std::size_t LinkFaultInjector::overflow_burst() {
  if (plan_->ring.overflow_probability <= 0.0 || plan_->ring.overflow_burst == 0) {
    return 0;
  }
  if (!ring_rng_.bernoulli(plan_->ring.overflow_probability)) return 0;
  ++state_.stats.ring_overflows;
  return plan_->ring.overflow_burst;
}

bool LinkFaultInjector::drop_feedback_attempt() {
  if (plan_->feedback.drop_probability <= 0.0) return false;
  if (!feedback_rng_.bernoulli(plan_->feedback.drop_probability)) return false;
  ++state_.stats.feedback_drops;
  return true;
}

double LinkFaultInjector::feedback_delay_us() {
  if (plan_->feedback.delay_probability <= 0.0) return 0.0;
  if (!feedback_rng_.bernoulli(plan_->feedback.delay_probability)) return 0.0;
  ++state_.stats.feedback_delays;
  state_.stats.feedback_latency_us += plan_->feedback.delay_us;
  return plan_->feedback.delay_us;
}

void LinkFaultInjector::note_feedback_retry(double backoff_us) {
  ++state_.stats.feedback_retries;
  state_.stats.feedback_latency_us += backoff_us;
}

void LinkFaultInjector::note_feedback_failure() { ++state_.stats.feedback_failures; }

}  // namespace talon
