#include "src/driver/telemetry.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "src/common/error.hpp"
#include "tests/driver/serve_testutil.hpp"

namespace talon {
namespace {

using testutil::read_golden;

TEST(Telemetry, EmptyRegistryRendersEmpty) {
  TelemetryRegistry registry;
  EXPECT_EQ(registry.render(), "");
  EXPECT_EQ(registry.series_count(), 0u);
}

TEST(Telemetry, RenderMatchesCommittedGolden) {
  // The full exposition format -- family ordering, label ordering, the
  // brace-less unlabelled series, integral vs fractional gauge
  // formatting, the fixed histogram bucket boundaries, the zero-count
  // histogram -- pinned by a committed golden file. If this test fails
  // the scrape format changed: that is a BREAKING change for anything
  // parsing the output; update the golden only deliberately.
  TelemetryRegistry registry;
  registry.counter("requests_total").inc(3);
  registry.counter("requests_total", "link=\"1\"").inc(5);
  registry.counter("requests_total", "link=\"2\"");  // registered, never inc'd
  registry.gauge("hit_rate").set(0.75);
  registry.gauge("temperature_c").set(-1.5);
  registry.gauge("uptime_rounds").set(42.0);
  LatencyHistogram& latency = registry.histogram("latency_us");
  latency.observe_us(1);
  latency.observe_us(3);
  latency.observe_us(100);
  latency.observe_us(std::uint64_t{1} << 30);  // overflow bucket
  registry.histogram("idle_us");  // zero observations

  const std::string rendered = registry.render();
  EXPECT_EQ(rendered, read_golden("tests/driver/golden/telemetry_scrape.txt"));
  // Rendering is a pure read: a second pass is byte-identical.
  EXPECT_EQ(registry.render(), rendered);
  EXPECT_EQ(registry.series_count(), 8u);
}

TEST(Telemetry, HandlesAreStableAcrossLookups) {
  TelemetryRegistry registry;
  TelemetryCounter& a = registry.counter("x_total");
  a.inc();
  // Force a rebalance of the underlying map with many more series.
  for (int i = 0; i < 100; ++i) {
    registry.counter("x_total", "link=\"" + std::to_string(i) + "\"");
  }
  TelemetryCounter& b = registry.counter("x_total");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 1u);
}

TEST(Telemetry, KindMismatchThrows) {
  TelemetryRegistry registry;
  registry.counter("serve_rounds_total");
  EXPECT_THROW(registry.gauge("serve_rounds_total"), StateError);
  EXPECT_THROW(registry.histogram("serve_rounds_total"), StateError);
  registry.gauge("depth");
  EXPECT_THROW(registry.counter("depth"), StateError);
  // Same name, same kind: fine, also with labels.
  registry.counter("serve_rounds_total", "link=\"9\"").inc();
  EXPECT_EQ(registry.counter("serve_rounds_total", "link=\"9\"").value(), 1u);
}

TEST(Telemetry, CounterSetOverridesForMirroredTotals) {
  TelemetryRegistry registry;
  TelemetryCounter& c = registry.counter("mirrored_total");
  c.inc(10);
  c.set(4);
  EXPECT_EQ(c.value(), 4u);
}

}  // namespace
}  // namespace talon
