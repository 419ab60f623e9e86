// Deterministic random number generation.
//
// Every stochastic component (channel noise, firmware measurement artifacts,
// probe-subset choice, calibration errors) draws from an explicitly seeded
// Rng so experiments are reproducible run-to-run. Components receive their
// own Rng (or a fork of one) instead of sharing a global generator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace talon {

/// Substream stream tags (the s0 coordinate of substream_seed). Every
/// runner that derives per-entity randomness owns a named tag here, so no
/// two subsystems can ever collide on a substream family. The remaining
/// coordinates are runner-specific (typically link/cell id, round/slot,
/// and an optional per-link salt) -- see each owner's header.
namespace streams {

// sim/experiment.cpp -- the replay runners.
inline constexpr std::uint64_t kRecording = 1;
inline constexpr std::uint64_t kError = 2;
inline constexpr std::uint64_t kQuality = 3;
inline constexpr std::uint64_t kThroughput = 4;

// sim/network.cpp -- the dense-deployment simulator.
inline constexpr std::uint64_t kNetworkDevice = 5;   ///< (link, side)
inline constexpr std::uint64_t kNetworkChannel = 6;  ///< (link, round)
inline constexpr std::uint64_t kNetworkSession = 7;  ///< (link, salt)
inline constexpr std::uint64_t kNetworkPhase = 8;    ///< (link)

// common/fault.cpp -- the fault-injection layer.
inline constexpr std::uint64_t kFaultLoss = 9;        ///< (link, round)
inline constexpr std::uint64_t kFaultCorruption = 10; ///< (link, round)
inline constexpr std::uint64_t kFaultRing = 11;       ///< (link, round)
inline constexpr std::uint64_t kFaultFeedback = 12;   ///< (link, round)

// sim/mesh.cpp -- the controller/minion mesh simulator.
inline constexpr std::uint64_t kMeshPlacement = 13;  ///< (link, 0, salt)
inline constexpr std::uint64_t kMeshJitter = 14;     ///< (link, slot, salt)
inline constexpr std::uint64_t kMeshChurn = 15;      ///< (link, slot, salt)

// tests/driver/serve_testutil.hpp + tools/talon_cli.cpp -- serving-layer
// report synthesis (per-link, per-report streams, independent of
// submission order and thread count).
inline constexpr std::uint64_t kServeReport = 16;  ///< (link, report)

/// Reserved for event-engine entities: an entity e of a discrete-event
/// simulation may draw from tag kEventEntityFirst + (e mod the range
/// width) without registering a name above. New *named* tags must stay
/// below kEventEntityFirst.
inline constexpr std::uint64_t kEventEntityFirst = 32;
inline constexpr std::uint64_t kEventEntityLast = 255;

/// The tag an event-engine entity draws from: its id folded into the
/// reserved range. Two entities of the same engine never collide unless
/// more than the range width are registered (the engines here register a
/// handful), and entity substreams can never collide with named tags.
inline constexpr std::uint64_t event_entity_tag(std::uint64_t entity) {
  return kEventEntityFirst + entity % (kEventEntityLast - kEventEntityFirst + 1);
}

namespace detail {
/// Compile-time pairwise-distinctness check for the named tags.
template <std::size_t N>
constexpr bool all_unique(const std::uint64_t (&tags)[N]) {
  for (std::size_t i = 0; i < N; ++i) {
    for (std::size_t j = i + 1; j < N; ++j) {
      if (tags[i] == tags[j]) return false;
    }
  }
  return true;
}

inline constexpr std::uint64_t kNamedTags[] = {
    kRecording,     kError,          kQuality,        kThroughput,
    kNetworkDevice, kNetworkChannel, kNetworkSession, kNetworkPhase,
    kFaultLoss,     kFaultCorruption, kFaultRing,     kFaultFeedback,
    kMeshPlacement, kMeshJitter,     kMeshChurn,     kServeReport};

static_assert(all_unique(kNamedTags), "substream stream tags must be unique");
static_assert([] {
  for (const std::uint64_t tag : kNamedTags) {
    if (tag >= kEventEntityFirst) return false;
  }
  return true;
}(), "named stream tags must stay below the event-engine entity range");
static_assert(kEventEntityFirst <= kEventEntityLast);
}  // namespace detail

}  // namespace streams

/// Counter-based substream derivation: mix a top-level seed with up to
/// four stream counters (e.g. an analysis tag, pose index, sweep index,
/// probe count) into an independent seed. Each counter word passes through
/// a SplitMix64 finalizer before being folded in, so neighbouring
/// counters land in unrelated parts of the seed space. Trials seeded this
/// way depend only on their own coordinates -- never on how many trials
/// ran before them -- which is what makes replay results independent of
/// iteration order and thread count.
std::uint64_t substream_seed(std::uint64_t seed, std::uint64_t s0,
                             std::uint64_t s1 = 0, std::uint64_t s2 = 0,
                             std::uint64_t s3 = 0);

class Rng {
 public:
  /// Seeded construction; identical seeds produce identical streams.
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Derive an independent generator; advancing the child does not perturb
  /// the parent beyond this single draw. Useful to give each subsystem its
  /// own stream while keeping one top-level seed.
  Rng fork();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive).
  int uniform_int(int lo, int hi);

  /// Zero-mean Gaussian with the given standard deviation.
  double normal(double stddev);

  /// Bernoulli trial with success probability p (clamped to [0, 1]).
  bool bernoulli(double p);

  /// k distinct values sampled uniformly from {0, 1, ..., n-1}.
  /// Order is random. Requires 0 <= k <= n.
  std::vector<int> sample_without_replacement(int n, int k);

  /// Access to the underlying engine for std:: distributions.
  std::mt19937_64& engine() { return engine_; }

  /// Exact textual serialization of the engine state (the standard
  /// operator<< representation of mt19937_64). restore_state() on any
  /// host resumes the identical stream; used by the snapshot codec.
  std::string save_state() const;

  /// Restore a stream previously captured with save_state(). Throws
  /// SnapshotError if the text does not parse as an engine state.
  void restore_state(const std::string& state);

 private:
  std::mt19937_64 engine_;
};

}  // namespace talon
