// Deterministic discrete-event engine.
//
// Replaces the round-based barrier loop: entities (links, channel
// arbiters, a mesh controller) schedule handler events on one ordered
// queue (common/event_queue.hpp) and the engine executes them in the
// canonical (timestamp, priority, entity, seq) order. Determinism is
// structural, not statistical:
//
//  * Ordering contract -- events run in strict key order. At one
//    timestamp, priorities partition the slot into phases (e.g. prepare
//    -> arbitrate -> apply); within a phase the entity id orders
//    execution, and the insertion sequence breaks the last tie.
//  * Commuting-batch rule -- a same-(timestamp, priority) batch fans out
//    over parallel workers ONLY when every event in it was scheduled as
//    `commuting`, meaning its handler touches nothing but its own
//    entity's state (plus immutable shared data). The batch is grouped by
//    entity -- one entity's events per worker, executed in seq order --
//    so the fan-out is provably order-free and results are bit-identical
//    at any thread count. Any non-commuting event in the batch degrades
//    the whole batch to serial canonical order.
//  * Shared state is an entity -- anything two links contend for (the
//    one mm-wave channel) is modeled as its own entity (sim/contention's
//    ChannelArbiter) whose events run in a later priority phase, after
//    the commuting fan-out of the links that feed it.
//  * Randomness rides substream_seed coordinates (common/rng.hpp), never
//    engine state, so any interleaving of entity activity replays
//    bit-for-bit.
//
// Handlers schedule follow-up work through their EventContext, which
// buffers the requests; the engine merges buffered requests in batch
// order after the batch completes, so parallel workers never touch the
// queue and the assigned sequence numbers are reproducible.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "src/common/event_queue.hpp"

namespace talon {

class EventContext;

/// Dense entity handle returned by EventEngine::add_entity.
using EntityId = std::uint64_t;

using EventFn = std::function<void(EventContext&)>;

/// When and as what an event is scheduled.
struct EventSpec {
  double time_s{0.0};
  EntityId entity{0};
  /// Phase within the timestamp; lower runs first.
  int priority{0};
  /// True iff the handler touches only its own entity's state (the
  /// commuting-batch rule above). Only commuting events may run in
  /// parallel with each other.
  bool commuting{false};
};

struct EventEngineConfig {
  /// Worker threads for commuting batches; <= 0 uses the executor
  /// default (common/parallel.hpp).
  int threads{0};
};

struct EventEngineStats {
  std::uint64_t executed{0};
  std::uint64_t batches{0};
  /// Batches that actually fanned out over parallel workers.
  std::uint64_t parallel_batches{0};
  std::size_t peak_queue{0};
};

class EventEngine {
 public:
  explicit EventEngine(EventEngineConfig config = {});

  /// Register an entity; ids are dense and assigned in call order (they
  /// are the stable tie-break of the event order, so registration order
  /// is part of the determinism contract). `name` is for diagnostics.
  EntityId add_entity(std::string name);

  const std::string& entity_name(EntityId entity) const;

  /// Schedule an event from outside the run loop (initial conditions).
  /// Inside a handler, use EventContext::schedule instead.
  void schedule(const EventSpec& spec, EventFn fn);

  /// Execute events in canonical order until the queue is empty or the
  /// next event is later than `until_s`. Returns events executed by this
  /// call. now() advances to each batch's timestamp.
  std::size_t run(double until_s = std::numeric_limits<double>::infinity());

  double now() const { return now_s_; }
  const EventEngineStats& stats() const { return stats_; }

 private:
  friend class EventContext;

  struct Ev {
    EventFn fn;
    bool commuting{false};
  };

  void validate_spec(const EventSpec& spec, bool from_handler) const;

  EventEngineConfig config_;
  EventQueue<Ev> queue_;
  std::vector<std::string> entity_names_;
  double now_s_{-std::numeric_limits<double>::infinity()};
  int current_priority_{std::numeric_limits<int>::min()};
  bool running_{false};
  EventEngineStats stats_;
};

/// Handed to each executing handler. Scheduling goes through the context
/// so handlers in a parallel batch never touch the shared queue: requests
/// are buffered per entity group and merged deterministically after the
/// batch. A context is owned by exactly one worker at a time.
class EventContext {
 public:
  EventContext(const EventEngine* engine, EntityId entity)
      : engine_(engine), entity_(entity) {}

  double now() const { return engine_->now_s_; }
  EntityId entity() const { return entity_; }

  /// Buffer a follow-up event. The spec must order strictly after the
  /// executing batch: a later timestamp, or the same timestamp with a
  /// higher priority (otherwise the event would have to run inside an
  /// already-draining batch, which has no deterministic meaning).
  void schedule(const EventSpec& spec, EventFn fn);

 private:
  friend class EventEngine;

  struct Deferred {
    EventSpec spec;
    EventFn fn;
  };

  const EventEngine* engine_;
  EntityId entity_;
  std::vector<Deferred> deferred_;
};

}  // namespace talon
