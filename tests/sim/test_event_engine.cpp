#include "src/sim/event_engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"

namespace talon {
namespace {

TEST(EventEngineTest, ExecutesInCanonicalKeyOrder) {
  EventEngine engine;
  const EntityId a = engine.add_entity("a");
  const EntityId b = engine.add_entity("b");
  ASSERT_EQ(engine.entity_name(a), "a");
  ASSERT_EQ(engine.entity_name(b), "b");

  // Scheduled scrambled; must run as time -> priority -> entity -> seq.
  std::vector<int> order;
  auto mark = [&order](int tag) {
    return [&order, tag](EventContext&) { order.push_back(tag); };
  };
  engine.schedule({.time_s = 2.0, .entity = a, .priority = 0}, mark(5));
  engine.schedule({.time_s = 1.0, .entity = b, .priority = 1}, mark(3));
  engine.schedule({.time_s = 1.0, .entity = b, .priority = 0}, mark(2));
  engine.schedule({.time_s = 1.0, .entity = a, .priority = 1}, mark(4));
  engine.schedule({.time_s = 1.0, .entity = a, .priority = 0}, mark(1));

  EXPECT_EQ(engine.run(), 5u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 3, 5}));
  EXPECT_EQ(engine.now(), 2.0);
  EXPECT_EQ(engine.stats().executed, 5u);
}

TEST(EventEngineTest, SameEntityEventsRunInInsertionOrder) {
  EventEngine engine;
  const EntityId a = engine.add_entity("a");
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    engine.schedule({.time_s = 1.0, .entity = a, .commuting = true},
                    [&order, i](EventContext&) { order.push_back(i); });
  }
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventEngineTest, RunUntilStopsBeforeLaterEvents) {
  EventEngine engine;
  const EntityId a = engine.add_entity("a");
  int executed = 0;
  auto count = [&executed](EventContext&) { ++executed; };
  engine.schedule({.time_s = 1.0, .entity = a}, count);
  engine.schedule({.time_s = 5.0, .entity = a}, count);

  EXPECT_EQ(engine.run(2.0), 1u);
  EXPECT_EQ(executed, 1);
  EXPECT_EQ(engine.run(), 1u);
  EXPECT_EQ(executed, 2);
}

TEST(EventEngineTest, CommutingBatchesAreBitIdenticalAcrossThreadCounts) {
  // N entities each draw from their own substream and store into their own
  // slot -- the commuting contract. The fan-out must not change a bit.
  constexpr std::size_t kEntities = 24;
  auto run_with = [](int threads, std::uint64_t* parallel_batches) {
    EventEngine engine(EventEngineConfig{.threads = threads});
    std::vector<EntityId> entities;
    for (std::size_t e = 0; e < kEntities; ++e) {
      std::string name = "e";
      name += std::to_string(e);
      entities.push_back(engine.add_entity(name));
    }
    std::vector<double> slots(kEntities, 0.0);
    for (std::size_t e = 0; e < kEntities; ++e) {
      engine.schedule(
          {.time_s = 1.0, .entity = entities[e], .commuting = true},
          [&slots, e](EventContext& ctx) {
            slots[e] = Rng(substream_seed(99, streams::kEventEntityFirst,
                                          ctx.entity()))
                           .uniform(0.0, 1.0);
          });
    }
    engine.run();
    if (parallel_batches) *parallel_batches = engine.stats().parallel_batches;
    return slots;
  };

  std::uint64_t serial_parallel = 0;
  const std::vector<double> baseline = run_with(1, &serial_parallel);
  for (int threads : {2, 7}) {
    std::uint64_t parallel_batches = 0;
    EXPECT_EQ(run_with(threads, &parallel_batches), baseline)
        << "threads=" << threads;
    EXPECT_GE(parallel_batches, 1u) << "threads=" << threads;
  }
}

TEST(EventEngineTest, NonCommutingEventDegradesTheBatchToSerial) {
  EventEngine engine(EventEngineConfig{.threads = 4});
  const EntityId a = engine.add_entity("a");
  const EntityId b = engine.add_entity("b");
  // Shared vector written by both handlers: only legal because the
  // non-commuting member forces the whole batch serial.
  std::vector<int> order;
  engine.schedule({.time_s = 1.0, .entity = a, .commuting = true},
                  [&order](EventContext&) { order.push_back(0); });
  engine.schedule({.time_s = 1.0, .entity = b, .commuting = false},
                  [&order](EventContext&) { order.push_back(1); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(engine.stats().parallel_batches, 0u);
  EXPECT_EQ(engine.stats().batches, 1u);
}

TEST(EventEngineTest, HandlersScheduleFollowUpsDeterministically) {
  EventEngine engine(EventEngineConfig{.threads = 2});
  const EntityId a = engine.add_entity("a");
  const EntityId b = engine.add_entity("b");

  // Both entities request a follow-up at the same later timestamp; the
  // merged order must be the canonical entity order, not worker finish
  // order.
  std::vector<std::string> trace;
  for (EntityId e : {b, a}) {
    engine.schedule(
        {.time_s = 1.0, .entity = e, .commuting = true},
        [&engine, &trace](EventContext& ctx) {
          ctx.schedule({.time_s = 2.0, .entity = ctx.entity()},
                       [&engine, &trace](EventContext& inner) {
                         trace.push_back(engine.entity_name(inner.entity()));
                       });
        });
  }
  EXPECT_EQ(engine.run(), 4u);
  EXPECT_EQ(trace, (std::vector<std::string>{"a", "b"}));
}

TEST(EventEngineTest, SamePhaseFollowUpFromHandlerThrows) {
  EventEngine engine;
  const EntityId a = engine.add_entity("a");
  engine.schedule({.time_s = 1.0, .entity = a, .priority = 1},
                  [a](EventContext& ctx) {
                    // Same (time, priority) as the executing batch: the
                    // event could never run deterministically.
                    ctx.schedule({.time_s = 1.0, .entity = a, .priority = 1},
                                 [](EventContext&) {});
                  });
  EXPECT_THROW(engine.run(), PreconditionError);
}

TEST(EventEngineTest, PastTimestampFromHandlerThrows) {
  EventEngine engine;
  const EntityId a = engine.add_entity("a");
  engine.schedule({.time_s = 2.0, .entity = a},
                  [a](EventContext& ctx) {
                    ctx.schedule({.time_s = 1.0, .entity = a},
                                 [](EventContext&) {});
                  });
  EXPECT_THROW(engine.run(), PreconditionError);
}

TEST(EventEngineTest, UnregisteredEntityIsRejected) {
  EventEngine engine;
  engine.add_entity("only");
  EXPECT_THROW(engine.schedule({.time_s = 0.0, .entity = 7}, [](EventContext&) {}),
               PreconditionError);
}

}  // namespace
}  // namespace talon
