#include "src/driver/snapshot.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/fault.hpp"
#include "src/common/rng.hpp"
#include "src/core/link_state.hpp"
#include "src/driver/css_daemon.hpp"
#include "tests/driver/serve_testutil.hpp"

namespace talon {
namespace {

using testutil::make_report;
using testutil::make_serve_assets;
using testutil::read_golden;

constexpr std::uint64_t kReportSeed = 2024;

CssDaemonConfig plain_config() {
  CssDaemonConfig config;
  config.probes = 6;
  return config;
}

CssDaemonConfig rich_config() {
  // Adaptive controller + path tracker + degradation: the maximal state
  // surface a session can carry without faults.
  CssDaemonConfig config;
  config.probes = 6;
  config.adaptive = true;
  config.track_path = true;
  config.degradation.enabled = true;
  return config;
}

CssDaemonConfig faulty_config() {
  CssDaemonConfig config;
  config.probes = 6;
  config.degradation.enabled = true;
  auto plan = std::make_shared<FaultPlan>();
  plan->seed = 77;
  plan->loss.probability = 0.2;
  plan->burst.enabled = true;
  plan->corruption.snr_outlier_probability = 0.1;
  plan->feedback.drop_probability = 0.3;
  config.faults = std::move(plan);
  return config;
}

/// A daemon with three headless links covering the three config shapes.
std::unique_ptr<CssDaemon> make_daemon(
    const std::shared_ptr<const PatternAssets>& assets) {
  auto daemon = std::make_unique<CssDaemon>(assets, plain_config());
  daemon->add_headless_link(1, Rng(101), plain_config());
  daemon->add_headless_link(2, Rng(102), rich_config());
  daemon->add_headless_link(3, Rng(103), faulty_config());
  return daemon;
}

void drive_rounds(CssDaemon& daemon, std::uint64_t first_round,
                  std::uint64_t rounds) {
  const PatternTable& table = daemon.assets()->patterns();
  for (std::uint64_t r = first_round; r < first_round + rounds; ++r) {
    for (int id : daemon.link_ids()) {
      daemon.process_report(id, make_report(kReportSeed, id, r, table));
    }
  }
}

std::vector<LinkSessionState> export_all(const CssDaemon& daemon) {
  std::vector<LinkSessionState> states;
  for (int id : daemon.link_ids()) {
    states.push_back(daemon.session(id).export_state());
  }
  return states;
}

/// A random VALID session state: every field drawn independently, with
/// the codec's edge values (u64 and int extremes, -0.0, subnormals, NaN
/// with payloads, infinities) mixed in at high rates.
LinkSessionState fuzzed_state(Rng& rng) {
  auto u64 = [&]() -> std::uint64_t {
    switch (rng.uniform_int(0, 4)) {
      case 0: return 0;
      case 1: return std::numeric_limits<std::uint64_t>::max();
      case 2: return std::uint64_t{1} << 63;
      default:
        return (static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30)) << 34) ^
               static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30));
    }
  };
  auto i32 = [&]() -> int {
    switch (rng.uniform_int(0, 3)) {
      case 0: return std::numeric_limits<int>::min();
      case 1: return std::numeric_limits<int>::max();
      case 2: return -1;
      default: return rng.uniform_int(-100000, 100000);
    }
  };
  auto f64 = [&]() -> double {
    switch (rng.uniform_int(0, 7)) {
      case 0: return -0.0;
      case 1: return std::numeric_limits<double>::denorm_min();
      case 2: return -std::numeric_limits<double>::denorm_min() * 3.0;
      case 3: return std::numeric_limits<double>::quiet_NaN();
      case 4: return std::bit_cast<double>(0x7ff0'0000'dead'beefULL);  // NaN payload
      case 5: return rng.uniform_int(0, 1) ? std::numeric_limits<double>::infinity()
                                           : -std::numeric_limits<double>::max();
      default: return rng.uniform(-1e6, 1e6);
    }
  };
  auto ints = [&] {
    std::vector<int> v(static_cast<std::size_t>(rng.uniform_int(0, 6)));
    for (int& x : v) x = i32();
    return v;
  };
  auto yes = [&] { return rng.uniform_int(0, 1) == 1; };
  auto direction = [&]() -> std::optional<Direction> {
    if (!yes()) return std::nullopt;
    return Direction{f64(), f64()};
  };

  LinkSessionState s;
  s.link_id = i32();
  s.rounds = u64();
  s.dropped_probes = u64();
  s.warned_unknown = ints();
  s.warn_cap_announced = yes();
  for (int i = rng.uniform_int(0, 24); i > 0; --i) {
    s.rng_state.push_back(static_cast<char>(rng.uniform_int(0, 255)));
  }
  s.controller = {u64(), ints(), ints(), yes()};
  s.lifecycle.state =
      static_cast<LinkState>(rng.uniform_int(0, static_cast<int>(kLinkStateCount) - 1));
  s.lifecycle.consecutive_failures = i32();
  s.lifecycle.window_left = u64();
  s.lifecycle.backoff = u64();
  s.lifecycle.stats = {u64(), u64(), u64(), u64(), u64(), u64(), u64(),
                       u64(), u64(), f64(), f64(), f64(), f64()};
  s.degradation = {u64(), u64(), u64(), u64(), u64(), u64()};
  if (yes()) s.tracker = PathTracker::State{direction(), direction(), i32()};
  if (yes()) {
    s.injector = LinkFaultInjector::State{
        u64(), yes(),
        FaultStats{u64(), u64(), u64(), u64(), u64(), u64(), u64(), u64(),
                   u64(), u64(), u64(), u64(), f64()}};
  }
  if (yes()) s.last_installed_sector = i32();
  return s;
}

TEST(Snapshot, EncodeDecodeRoundTripIsExact) {
  auto assets = make_serve_assets();
  auto daemon = make_daemon(assets);
  drive_rounds(*daemon, 0, 25);

  const std::vector<LinkSessionState> states = export_all(*daemon);
  const std::vector<std::uint8_t> bytes = snapshot_sessions(*daemon);
  const std::vector<LinkSessionState> decoded = decode_session_states(bytes);
  ASSERT_EQ(decoded.size(), states.size());
  for (std::size_t i = 0; i < states.size(); ++i) {
    EXPECT_EQ(decoded[i], states[i]) << "link " << states[i].link_id;
  }
  // Re-encoding the decode reproduces the blob byte for byte (doubles
  // travel as bit patterns -- nothing is lost to formatting).
  EXPECT_EQ(encode_session_states(decoded), bytes);

  // Fuzzed valid states, one blob each and one blob of all of them. A
  // state holding a NaN is not == to itself, so those compare by the
  // re-encoded bytes alone (which also catch a -0.0 decoded as +0.0).
  Rng rng(8128);
  std::vector<LinkSessionState> fuzzed;
  for (int i = 0; i < 300; ++i) fuzzed.push_back(fuzzed_state(rng));
  for (const LinkSessionState& s : fuzzed) {
    const std::vector<std::uint8_t> blob = encode_session_states({&s, 1});
    const std::vector<LinkSessionState> back = decode_session_states(blob);
    ASSERT_EQ(back.size(), 1u);
    EXPECT_EQ(encode_session_states(back), blob) << "link " << s.link_id;
    if (s == s) {
      EXPECT_EQ(back[0], s) << "link " << s.link_id;
    }
  }
  const std::vector<std::uint8_t> all = encode_session_states(fuzzed);
  EXPECT_EQ(encode_session_states(decode_session_states(all)), all);
}

/// The sessions pinned by golden/session_snapshot.hex: tracker, injector
/// and last sector each present and absent, one record per lifecycle
/// state, every counter a distinct nonzero value (a swapped field order
/// cannot decode back to these).
std::vector<LinkSessionState> golden_states() {
  std::vector<LinkSessionState> states(4);
  std::uint64_t next = 1;
  auto lifecycle_stats = [&] {
    LifecycleStats s{next, next + 1, next + 2, next + 3, next + 4, next + 5,
                     next + 6, next + 7, next + 8, 10.5, 2.25, 7.0, 0.125};
    next += 9;
    return s;
  };
  auto degradation = [&] {
    DegradationStats s{next, next + 1, next + 2, next + 3, next + 4, next + 5};
    next += 6;
    return s;
  };
  for (std::size_t i = 0; i < states.size(); ++i) {
    LinkSessionState& s = states[i];
    s.link_id = static_cast<int>(i) * 10 + 1;
    s.rounds = 100 + i;
    s.dropped_probes = i;
    s.rng_state = "rng state " + std::to_string(i);
    s.controller.probes = 6 + i;
    s.lifecycle.stats = lifecycle_stats();
    s.degradation = degradation();
  }
  // Plain session, healthy: nothing optional present.
  states[0].lifecycle.state = LinkState::kUp;
  // Tracking, one failure in: tracker with a track but no jump candidate.
  states[1].warned_unknown = {40, 41};
  states[1].controller.window = {3, 3, 7, 12};
  states[1].controller.previous_window_ids = {1, 5, 9};
  states[1].controller.has_previous = true;
  states[1].lifecycle.state = LinkState::kUnstable;
  states[1].lifecycle.consecutive_failures = 1;
  states[1].tracker = PathTracker::State{Direction{-12.5, 4.0}, std::nullopt, 0};
  states[1].last_installed_sector = 17;
  // Faulty session mid-backoff in an acquisition window.
  states[2].warn_cap_announced = true;
  states[2].lifecycle.state = LinkState::kAcquisition;
  states[2].lifecycle.window_left = 11;
  states[2].lifecycle.backoff = 4;
  states[2].injector = LinkFaultInjector::State{
      42, true, FaultStats{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 1350.5}};
  states[2].last_installed_sector = -3;
  // Everything optional present, link down.
  states[3].lifecycle.state = LinkState::kDown;
  states[3].lifecycle.backoff = 8;
  states[3].tracker =
      PathTracker::State{Direction{30.0, -2.5}, Direction{-45.0, 10.0}, 2};
  states[3].injector = LinkFaultInjector::State{
      7, false, FaultStats{13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 0.25}};
  return states;
}

std::vector<std::uint8_t> parse_hex(const std::string& text) {
  std::vector<std::uint8_t> bytes;
  std::string digits;
  for (char c : text) {
    if (std::isxdigit(static_cast<unsigned char>(c))) digits.push_back(c);
  }
  for (std::size_t i = 0; i + 1 < digits.size(); i += 2) {
    bytes.push_back(
        static_cast<std::uint8_t>(std::stoi(digits.substr(i, 2), nullptr, 16)));
  }
  return bytes;
}

TEST(Snapshot, CommittedGoldenDecodesAndReencodesByteIdentically) {
  // The version-1 wire format, pinned: a blob written by an earlier build
  // must decode to the same states and re-encode to the same bytes.
  const std::vector<std::uint8_t> golden =
      parse_hex(read_golden("tests/driver/golden/session_snapshot.hex"));
  ASSERT_FALSE(golden.empty());
  const std::vector<LinkSessionState> expected = golden_states();
  const std::vector<LinkSessionState> decoded = decode_session_states(golden);
  ASSERT_EQ(decoded.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(decoded[i], expected[i]) << "record " << i;
  }
  EXPECT_EQ(encode_session_states(decoded), golden);
  EXPECT_EQ(encode_session_states(expected), golden);
}

TEST(Snapshot, RestoreResumesByteIdenticalSelections) {
  auto assets = make_serve_assets();
  auto original = make_daemon(assets);
  drive_rounds(*original, 0, 20);
  const std::vector<std::uint8_t> bytes = snapshot_sessions(*original);

  // A fresh daemon with the same topology restores the snapshot, then
  // both process the same subsequent reports: every selection-relevant
  // bit must evolve identically.
  auto restored = make_daemon(assets);
  restore_sessions(*restored, bytes);
  EXPECT_EQ(export_all(*restored), export_all(*original));

  drive_rounds(*original, 20, 15);
  drive_rounds(*restored, 20, 15);
  const auto after_original = export_all(*original);
  const auto after_restored = export_all(*restored);
  ASSERT_EQ(after_original.size(), after_restored.size());
  for (std::size_t i = 0; i < after_original.size(); ++i) {
    EXPECT_EQ(after_restored[i], after_original[i])
        << "link " << after_original[i].link_id << " diverged after restore";
  }
  for (int id : original->link_ids()) {
    EXPECT_EQ(restored->session(id).last_installed_sector(),
              original->session(id).last_installed_sector());
  }
}

TEST(Snapshot, RoundTripCoversEveryReachableLifecycleState) {
  // Walk one degradation-enabled session through Up -> Unstable ->
  // Acquisition -> mid-backoff re-entry, snapshotting at each stop.
  auto assets = make_serve_assets();
  CssDaemonConfig config = rich_config();
  config.degradation.max_consecutive_failures = 2;
  config.degradation.recovery_rounds = 3;

  auto roundtrip_at = [&](CssDaemon& daemon, LinkState expected) {
    ASSERT_EQ(daemon.session(0).lifecycle().state(), expected)
        << to_string(expected);
    const std::vector<std::uint8_t> bytes = snapshot_sessions(daemon);
    // Two independent twins restore the same snapshot (one deliberately
    // seeded differently -- restore must fully overwrite the RNG) and
    // keep evolving identically, without perturbing the walked daemon.
    CssDaemon twin_a(assets, config);
    twin_a.add_headless_link(0, Rng(7), config);
    CssDaemon twin_b(assets, config);
    twin_b.add_headless_link(0, Rng(1000), config);
    restore_sessions(twin_a, bytes);
    restore_sessions(twin_b, bytes);
    EXPECT_EQ(twin_a.session(0).export_state(), daemon.session(0).export_state())
        << to_string(expected);
    const auto report = make_report(kReportSeed, 0, 900, assets->patterns());
    twin_a.process_report(0, report);
    twin_b.process_report(0, report);
    EXPECT_EQ(twin_a.session(0).export_state(), twin_b.session(0).export_state())
        << to_string(expected);
  };

  CssDaemon daemon(assets, config);
  daemon.add_headless_link(0, Rng(7), config);
  const PatternTable& table = assets->patterns();

  for (std::uint64_t r = 0; r < 5; ++r) {
    daemon.process_report(0, make_report(kReportSeed, 0, r, table));
  }
  {
    SCOPED_TRACE("healthy steady state");
    roundtrip_at(daemon, LinkState::kUp);
  }

  daemon.process_report(0, {});  // empty sweep = one failure
  {
    SCOPED_TRACE("one failure below the trip threshold");
    roundtrip_at(daemon, LinkState::kUnstable);
  }

  daemon.process_report(0, {});  // second consecutive failure trips
  daemon.process_report(0, {});
  {
    SCOPED_TRACE("mid-acquisition window");
    roundtrip_at(daemon, LinkState::kAcquisition);
  }

  // Serve the rest of the window on failures so re-entry fails straight
  // back into a DOUBLED backoff window, then snapshot mid-backoff.
  for (int i = 0; i < 12; ++i) daemon.process_report(0, {});
  {
    SCOPED_TRACE("mid-backoff re-entry");
    roundtrip_at(daemon, LinkState::kAcquisition);
    EXPECT_GT(daemon.session(0).lifecycle_stats().trips, 1u);
  }
}

TEST(Snapshot, RejectsBadMagicVersionTruncationAndTrailingBytes) {
  auto assets = make_serve_assets();
  auto daemon = make_daemon(assets);
  drive_rounds(*daemon, 0, 5);
  const std::vector<std::uint8_t> bytes = snapshot_sessions(*daemon);

  {
    std::vector<std::uint8_t> bad = bytes;
    bad[0] ^= 0xff;  // magic
    EXPECT_THROW(decode_session_states(bad), SnapshotError);
  }
  {
    std::vector<std::uint8_t> bad = bytes;
    bad[4] = 0x7f;  // version
    EXPECT_THROW(decode_session_states(bad), SnapshotError);
  }
  {
    std::vector<std::uint8_t> bad = bytes;
    bad.push_back(0);  // trailing garbage after the last record
    EXPECT_THROW(decode_session_states(bad), SnapshotError);
  }
  // Every possible truncation point must be detected, never read OOB.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::vector<std::uint8_t> cut(bytes.begin(),
                                  bytes.begin() + static_cast<long>(len));
    EXPECT_THROW(decode_session_states(cut), SnapshotError) << "len " << len;
  }
  {
    // A record length that contradicts the payload.
    std::vector<std::uint8_t> bad = bytes;
    bad[12] ^= 0x40;  // first record's length prefix
    EXPECT_THROW(decode_session_states(bad), SnapshotError);
  }
}

TEST(Snapshot, FuzzedHeadersNeverCrash) {
  auto assets = make_serve_assets();
  auto daemon = make_daemon(assets);
  drive_rounds(*daemon, 0, 3);
  const std::vector<std::uint8_t> valid = snapshot_sessions(*daemon);

  Rng rng(1234);
  // Pure random blobs: must throw (a random u32 matching the magic is a
  // 2^-32 event), never crash or read out of bounds.
  for (int i = 0; i < 200; ++i) {
    const int len = rng.uniform_int(0, 64);
    std::vector<std::uint8_t> blob(static_cast<std::size_t>(len));
    for (std::uint8_t& b : blob) {
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    EXPECT_THROW(decode_session_states(blob), SnapshotError);
  }
  // Single-byte mutations of a valid snapshot: decode must either reject
  // with the typed error or produce a structurally valid result --
  // anything else (crash, OOB, other exception types) fails the test.
  for (int i = 0; i < 400; ++i) {
    std::vector<std::uint8_t> blob = valid;
    const std::size_t pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(blob.size()) - 1));
    blob[pos] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 255));
    try {
      const auto states = decode_session_states(blob);
      EXPECT_LE(states.size(), 16u);  // a sane mutation keeps the count
    } catch (const SnapshotError&) {
    }
  }
}

TEST(Snapshot, RestoreTopologyMismatchLeavesDaemonUntouched) {
  auto assets = make_serve_assets();
  auto daemon = make_daemon(assets);
  drive_rounds(*daemon, 0, 5);
  const std::vector<std::uint8_t> bytes = snapshot_sessions(*daemon);

  // Different link set: id 3 replaced by 4.
  CssDaemon other(assets, plain_config());
  other.add_headless_link(1, Rng(201), plain_config());
  other.add_headless_link(2, Rng(202), rich_config());
  other.add_headless_link(4, Rng(203), plain_config());
  drive_rounds(other, 0, 2);
  const auto before = export_all(other);
  EXPECT_THROW(restore_sessions(other, bytes), SnapshotError);
  EXPECT_EQ(export_all(other), before) << "failed restore must not import";

  // Missing link entirely.
  CssDaemon fewer(assets, plain_config());
  fewer.add_headless_link(1, Rng(201), plain_config());
  EXPECT_THROW(restore_sessions(fewer, bytes), SnapshotError);
}

TEST(Snapshot, RngStateRoundTripResumesTheExactStream) {
  Rng rng(42);
  for (int i = 0; i < 100; ++i) rng.uniform(0.0, 1.0);
  const std::string state = rng.save_state();
  std::vector<double> expected;
  for (int i = 0; i < 32; ++i) expected.push_back(rng.uniform(0.0, 1.0));

  Rng resumed(999);  // different seed; restore must fully overwrite
  resumed.restore_state(state);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(resumed.uniform(0.0, 1.0), expected[static_cast<std::size_t>(i)]);
  }
  EXPECT_THROW(resumed.restore_state("not an engine state"), SnapshotError);
}

}  // namespace
}  // namespace talon
