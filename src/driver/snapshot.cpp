#include "src/driver/snapshot.hpp"

#include <algorithm>
#include <bit>
#include <optional>
#include <string>

#include "src/common/error.hpp"
#include "src/common/fields.hpp"

namespace talon {
namespace {

// --- the two directions of one record layout ---------------------------------
//
// Writer appends each field it is handed; Reader assigns it from the
// bytes, bounds-checked. Both take the same calls, so session_record()
// below states the layout once for encode and decode alike. All integers
// are little-endian; doubles travel as their IEEE-754 bit pattern.

class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& out) : out_(out) {}

  void u32(std::uint32_t v) { put(v, 4); }

  void operator()(std::uint64_t v) { put(v, 8); }
  void operator()(std::int32_t v) { put(static_cast<std::uint32_t>(v), 4); }
  void operator()(double v) { put(std::bit_cast<std::uint64_t>(v), 8); }
  void operator()(bool v) { put(v ? 1 : 0, 1); }
  void operator()(LinkState v) { put(static_cast<std::uint8_t>(v), 1); }
  void operator()(const std::string& v) {
    u32(static_cast<std::uint32_t>(v.size()));
    out_.insert(out_.end(), v.begin(), v.end());
  }
  void operator()(const std::vector<int>& v) {
    u32(static_cast<std::uint32_t>(v.size()));
    for (int x : v) (*this)(x);
  }

  /// Presence byte, then `fields(*v)` when present.
  template <class T, class F>
  void optional(const std::optional<T>& v, F&& fields) {
    (*this)(v.has_value());
    if (v) fields(*v);
  }

 private:
  void put(std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<std::uint8_t>& out_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint32_t u32() { return static_cast<std::uint32_t>(get(4)); }

  void operator()(std::uint64_t& v) { v = get(8); }
  void operator()(std::int32_t& v) { v = static_cast<std::int32_t>(get(4)); }
  void operator()(double& v) { v = std::bit_cast<double>(get(8)); }
  void operator()(bool& v) {
    const std::uint8_t b = take(1)[0];
    if (b > 1) throw SnapshotError("snapshot boolean field holds " + std::to_string(b));
    v = b != 0;
  }
  void operator()(LinkState& v) {
    const std::uint8_t b = take(1)[0];
    if (b >= kLinkStateCount) {
      throw SnapshotError("snapshot lifecycle state out of range: " + std::to_string(b));
    }
    v = static_cast<LinkState>(b);
  }
  void operator()(std::string& v) {
    const auto b = take(u32());
    v.assign(b.begin(), b.end());
  }
  void operator()(std::vector<int>& v) {
    const std::uint32_t n = u32();
    if (n > remaining() / 4) {
      throw SnapshotError("snapshot array length exceeds the payload");
    }
    v.resize(n);
    for (int& x : v) (*this)(x);
  }

  /// Presence byte, then `fields(value)` into a freshly engaged value.
  template <class T, class F>
  void optional(std::optional<T>& v, F&& fields) {
    bool present = false;
    (*this)(present);
    v.reset();
    if (present) fields(v.emplace());
  }

  /// Sub-reader over the next `n` bytes (a length-prefixed record).
  Reader slice(std::uint32_t n) { return Reader(take(n)); }

  std::size_t remaining() const { return bytes_.size() - pos_; }

 private:
  std::uint64_t get(int bytes) {
    const auto b = take(static_cast<std::size_t>(bytes));
    std::uint64_t v = 0;
    for (int i = 0; i < bytes; ++i) v |= std::uint64_t{b[i]} << (8 * i);
    return v;
  }

  std::span<const std::uint8_t> take(std::size_t n) {
    if (remaining() < n) {
      throw SnapshotError("snapshot truncated: need " + std::to_string(n) +
                          " bytes, have " + std::to_string(remaining()));
    }
    auto out = bytes_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_{0};
};

/// A counter struct's record: its field list, in list order.
template <class Io, class Stats>
void stats_record(Io& io, Stats& stats) {
  for_each_field(stats, [&](const auto&, auto& value) { io(value); });
}

/// The session record's layout, for both directions (`S` is const when
/// writing).
template <class Io, class S>
void session_record(Io& io, S& s) {
  io(s.link_id);
  io(s.rounds);
  io(s.dropped_probes);
  io(s.warned_unknown);
  io(s.warn_cap_announced);
  io(s.rng_state);
  // Adaptive controller.
  io(s.controller.probes);
  io(s.controller.window);
  io(s.controller.previous_window_ids);
  io(s.controller.has_previous);
  // Lifecycle machine.
  io(s.lifecycle.state);
  io(s.lifecycle.consecutive_failures);
  io(s.lifecycle.window_left);
  io(s.lifecycle.backoff);
  stats_record(io, s.lifecycle.stats);
  stats_record(io, s.degradation);
  const auto direction = [&](auto& d) {
    io(d.azimuth_deg);
    io(d.elevation_deg);
  };
  io.optional(s.tracker, [&](auto& tracker) {
    io.optional(tracker.track, direction);
    io.optional(tracker.jump_candidate, direction);
    io(tracker.jump_run);
  });
  io.optional(s.injector, [&](auto& injector) {
    io(injector.round);
    io(injector.ge_bad);
    stats_record(io, injector.stats);
  });
  io.optional(s.last_installed_sector, [&](auto& sector) { io(sector); });
}

}  // namespace

std::vector<std::uint8_t> encode_session_states(
    std::span<const LinkSessionState> states) {
  std::vector<std::uint8_t> out;
  Writer header(out);
  header.u32(kSnapshotMagic);
  header.u32(kSnapshotVersion);
  header.u32(static_cast<std::uint32_t>(states.size()));
  std::vector<std::uint8_t> record;
  for (const LinkSessionState& s : states) {
    record.clear();
    Writer writer(record);
    session_record(writer, s);
    header.u32(static_cast<std::uint32_t>(record.size()));
    out.insert(out.end(), record.begin(), record.end());
  }
  return out;
}

std::vector<LinkSessionState> decode_session_states(
    std::span<const std::uint8_t> bytes) {
  Reader in(bytes);
  const std::uint32_t magic = in.u32();
  if (magic != kSnapshotMagic) {
    throw SnapshotError("snapshot magic mismatch (not a session snapshot)");
  }
  const std::uint32_t version = in.u32();
  if (version != kSnapshotVersion) {
    throw SnapshotError("unsupported snapshot version " +
                        std::to_string(version) + " (this build reads " +
                        std::to_string(kSnapshotVersion) + ")");
  }
  const std::uint32_t count = in.u32();
  std::vector<LinkSessionState> states;
  // Every record costs at least its length prefix, so a forged count
  // cannot reserve more than the payload could hold.
  states.reserve(std::min<std::size_t>(count, in.remaining() / 4));
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t length = in.u32();
    Reader record = in.slice(length);
    LinkSessionState& s = states.emplace_back();
    session_record(record, s);
    if (record.remaining() != 0) {
      throw SnapshotError("snapshot session record carries " +
                          std::to_string(record.remaining()) + " trailing bytes");
    }
  }
  if (in.remaining() != 0) {
    throw SnapshotError("snapshot carries " + std::to_string(in.remaining()) +
                        " trailing bytes after the last record");
  }
  return states;
}

std::vector<std::uint8_t> snapshot_sessions(const CssDaemon& daemon) {
  std::vector<LinkSessionState> states;
  for (int id : daemon.link_ids()) {
    states.push_back(daemon.session(id).export_state());
  }
  return encode_session_states(states);
}

void restore_sessions(CssDaemon& daemon, std::span<const std::uint8_t> bytes) {
  const std::vector<LinkSessionState> states = decode_session_states(bytes);
  // Validate the topology before touching any session, so a mismatched
  // snapshot does not leave the daemon half-restored.
  if (states.size() != daemon.session_count()) {
    throw SnapshotError("snapshot holds " + std::to_string(states.size()) +
                        " sessions, daemon holds " +
                        std::to_string(daemon.session_count()));
  }
  for (const LinkSessionState& s : states) {
    if (!daemon.has_session(s.link_id)) {
      throw SnapshotError("snapshot session for link " +
                          std::to_string(s.link_id) +
                          " has no session in the daemon");
    }
  }
  for (const LinkSessionState& s : states) {
    daemon.session(s.link_id).import_state(s);
  }
}

}  // namespace talon
