#include "src/driver/serve.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/fault.hpp"
#include "src/common/rng.hpp"
#include "src/driver/css_daemon.hpp"
#include "tests/driver/serve_testutil.hpp"

namespace talon {
namespace {

using testutil::make_report;
using testutil::make_serve_assets;
using testutil::read_golden;

constexpr std::uint64_t kReportSeed = 555;
constexpr int kLinks = 5;
constexpr std::uint64_t kRounds = 30;

CssDaemonConfig session_config() {
  // Exercise the stateful selectors: adaptive probe control, path
  // tracking and confidence-gated degradation all ride along.
  CssDaemonConfig config;
  config.probes = 6;
  config.adaptive = true;
  config.track_path = true;
  config.degradation.enabled = true;
  return config;
}

Rng link_rng(int link_id) { return Rng(1000 + static_cast<std::uint64_t>(link_id)); }

/// Drop the panel-cache lines from a scrape. The shared response-matrix
/// cache is populated concurrently, so the hit/miss SPLIT (not the
/// selections) may vary with the thread count when two links race on the
/// same subset key; everything else must be byte-identical.
std::string without_cache_lines(const std::string& scrape) {
  std::istringstream in(scrape);
  std::string out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("serve_panel_cache") != std::string::npos) continue;
    out += line;
    out += '\n';
  }
  return out;
}

TEST(ServeDeterminism, AsyncMatchesSyncBitIdenticallyAtAnyThreadCount) {
  // Reference: the same per-link report sequences through the SYNCHRONOUS
  // API, one link at a time.
  auto sync_assets = make_serve_assets();
  CssDaemon sync(sync_assets, session_config());
  for (int id = 0; id < kLinks; ++id) {
    sync.add_headless_link(id, link_rng(id), session_config());
  }
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    for (int id = 0; id < kLinks; ++id) {
      sync.process_report(id,
                          make_report(kReportSeed, id, r, sync_assets->patterns()));
    }
  }
  std::vector<LinkSessionState> expected;
  for (int id = 0; id < kLinks; ++id) {
    expected.push_back(sync.session(id).export_state());
  }

  std::string reference_scrape;
  for (const int threads : {1, 2, 7}) {
    auto assets = make_serve_assets();
    ServeConfig serve_config;
    serve_config.threads = threads;
    serve_config.measure_latency = false;  // scrapes must be deterministic
    ServeDaemon serve(assets, session_config(), serve_config);
    for (int id = 0; id < kLinks; ++id) {
      serve.add_link(id, link_rng(id));
    }
    // Interleave submissions round-major (any per-link-order-preserving
    // interleaving must produce the same result), then drain on this
    // thread with the configured worker fan-out.
    for (std::uint64_t r = 0; r < kRounds; ++r) {
      for (int id = 0; id < kLinks; ++id) {
        serve.submit(id, make_report(kReportSeed, id, r, assets->patterns()));
      }
    }
    EXPECT_EQ(serve.drain_all(), kLinks * kRounds) << "threads=" << threads;
    EXPECT_EQ(serve.processed(), serve.submitted());
    EXPECT_EQ(serve.rejected(), 0u);

    for (int id = 0; id < kLinks; ++id) {
      EXPECT_EQ(serve.daemon().session(id).export_state(), expected[id])
          << "threads=" << threads << " link=" << id
          << ": async selection state diverged from the synchronous run";
    }
    const std::string scrape = without_cache_lines(serve.scrape());
    if (reference_scrape.empty()) {
      reference_scrape = scrape;
      EXPECT_NE(scrape.find("serve_reports_processed_total 150"),
                std::string::npos);
    } else {
      EXPECT_EQ(scrape, reference_scrape)
          << "threads=" << threads << ": telemetry diverged across thread counts";
    }
  }
}

TEST(ServeDeterminism, ScrapeMatchesCommittedGolden) {
  // The whole exposition, pinned on a run where every exported family is
  // live: faulty, tracking, degradation-gated links (lifecycle trips and
  // time in state), a reading from a sector the table lacks (dropped
  // probes) and per-link series. One worker, so even the panel-cache
  // hit/miss split is deterministic. A failure here means the scrape
  // changed: new series are additions, anything else breaks scrapers.
  CssDaemonConfig config = session_config();
  config.adaptive = false;  // keep every report at the requested count
  auto plan = std::make_shared<FaultPlan>();
  plan->seed = 91;
  plan->loss.probability = 0.1;
  plan->burst.enabled = true;
  plan->burst.p_good_to_bad = 0.02;
  plan->corruption.snr_outlier_probability = 0.1;
  plan->corruption.rssi_outlier_probability = 0.1;
  plan->corruption.floor_clamp_probability = 0.05;
  plan->feedback.drop_probability = 0.3;
  plan->feedback.delay_probability = 0.2;
  config.faults = std::move(plan);
  ServeConfig serve_config;
  serve_config.threads = 1;
  serve_config.measure_latency = false;
  serve_config.per_link_metrics = true;
  auto assets = make_serve_assets();
  ServeDaemon serve(assets, config, serve_config);
  constexpr int kGoldenLinks = 4;
  for (int id = 0; id < kGoldenLinks; ++id) serve.add_link(id, link_rng(id));
  ::testing::internal::CaptureStderr();  // the unknown-sector warning
  for (std::uint64_t r = 0; r < 40; ++r) {
    for (int id = 0; id < kGoldenLinks; ++id) {
      // Reports repeat every 6 rounds, so probe subsets hit the panel cache.
      std::vector<SectorReading> report =
          make_report(kReportSeed, id, r % 6, assets->patterns());
      if (r % 7 == 3) {
        report.push_back({.sector_id = 999, .snr_db = 3.0, .rssi_dbm = 3.0});
      }
      serve.submit(id, std::move(report));
    }
  }
  serve.drain_all();
  ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(serve.scrape(), read_golden("tests/driver/golden/serve_scrape.txt"));
}

TEST(ServeDeterminism, HotSwapMidStreamDropsNothingAndRebindsEveryLink) {
  auto assets = make_serve_assets();
  ServeConfig serve_config;
  serve_config.queue_capacity = 256;
  serve_config.threads = 2;
  ServeDaemon serve(assets, session_config(), serve_config);
  constexpr int kSwapLinks = 4;
  for (int id = 0; id < kSwapLinks; ++id) serve.add_link(id, link_rng(id));
  serve.start();
  ASSERT_TRUE(serve.running());

  constexpr std::uint64_t kPerPhase = 40;
  auto submit_phase = [&serve, &assets](std::uint64_t first) {
    // Two producers, two links each, submitting concurrently with the
    // consumer (and with the swap below).
    std::vector<std::thread> producers;
    for (int p = 0; p < 2; ++p) {
      producers.emplace_back([&serve, &assets, p, first] {
        for (std::uint64_t r = first; r < first + kPerPhase; ++r) {
          for (int id = 2 * p; id < 2 * p + 2; ++id) {
            serve.submit(id, make_report(kReportSeed, id, r, assets->patterns()));
          }
        }
      });
    }
    for (std::thread& t : producers) t.join();
  };

  submit_phase(0);
  // Publish a recalibrated table while the consumer is mid-stream; no
  // reader stalls, and every link lazily rebinds.
  auto recalibrated = make_serve_assets(0.7);
  serve.swap_assets(recalibrated);
  EXPECT_EQ(serve.assets_epoch(), 1u);
  submit_phase(kPerPhase);
  serve.stop();
  ASSERT_FALSE(serve.running());
  serve.drain_all();  // anything accepted in the stop window

  // Zero drops: everything submitted was processed exactly once.
  EXPECT_EQ(serve.submitted(), 2 * kPerPhase * kSwapLinks);
  EXPECT_EQ(serve.processed(), serve.submitted());
  EXPECT_EQ(serve.rejected(), 0u);
  std::uint64_t rounds = 0;
  for (int id = 0; id < kSwapLinks; ++id) {
    rounds += serve.daemon().session(id).rounds();
    // Every session processed post-swap reports, so all ride the new
    // generation now.
    EXPECT_EQ(serve.daemon().session(id).assets().get(), recalibrated.get());
  }
  EXPECT_EQ(rounds, serve.processed());
  EXPECT_EQ(serve.rebinds(), static_cast<std::uint64_t>(kSwapLinks));
  EXPECT_EQ(serve.current_assets().get(), recalibrated.get());
  // Every processed report left one latency observation, none of them
  // past the last finite bucket.
  const LatencyHistogram& latency =
      serve.telemetry().histogram("serve_selection_latency_us");
  EXPECT_EQ(latency.count(), serve.processed());
  EXPECT_EQ(latency.bucket_count(LatencyHistogram::kBuckets), 0u);
}

/// The value of the unlabeled series `name` in a scrape.
std::uint64_t scraped(const std::string& scrape, const std::string& name) {
  std::istringstream in(scrape);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(name + " ", 0) == 0) return std::stoull(line.substr(name.size() + 1));
  }
  ADD_FAILURE() << "no series " << name;
  return 0;
}

/// Assets on the synthetic table shifted by `peak_delta_db` whose
/// destruction is observable: the deleter bumps `destroyed`.
std::shared_ptr<const PatternAssets> make_counted_assets(
    std::atomic<int>& destroyed, double peak_delta_db) {
  return std::shared_ptr<const PatternAssets>(
      new PatternAssets(peak_delta_db == 0.0 ? testutil::synthetic_table()
                                             : testutil::shifted_table(peak_delta_db),
                        testutil::synthetic_grid(), CorrelationDomain::kLinear),
      [&destroyed](const PatternAssets* p) {
        destroyed.fetch_add(1, std::memory_order_relaxed);
        delete p;
      });
}

TEST(ServeDeterminism, SwapRetiresGenerationZeroAndScrapeFollowsTheNewOne) {
  // The daemon is the only owner of "current assets": after a swap,
  // generation 0 lives exactly as long as some link still rides it, and
  // the scrape reports the new generation's panel cache.
  std::atomic<int> destroyed{0};
  std::shared_ptr<const PatternAssets> gen0 = make_counted_assets(destroyed, 0.0);
  const PatternTable table = gen0->patterns();
  ServeConfig serve_config;
  serve_config.threads = 2;
  CssDaemonConfig plain;  // every round a compressive one
  plain.probes = 6;
  ServeDaemon serve(gen0, plain, serve_config);
  for (int id = 0; id < kLinks; ++id) serve.add_link(id, link_rng(id));
  for (std::uint64_t r = 0; r < 4; ++r) {
    for (int id = 0; id < kLinks; ++id) {
      serve.submit(id, make_report(kReportSeed, id, r, table));
    }
  }
  serve.drain_all();
  const auto gen0_cache = gen0->engine().response_matrix().cache_stats();
  const std::string before = serve.scrape();
  EXPECT_EQ(scraped(before, "serve_panel_cache_misses_total"), gen0_cache.misses);
  EXPECT_GT(gen0_cache.misses, 0u);

  const auto gen1 = make_serve_assets(0.7);
  gen0.reset();
  serve.swap_assets(gen1);
  EXPECT_EQ(destroyed.load(), 0);  // links still ride it until they rebind

  // Only the first half of the links report: they move over, the rest
  // still hold generation 0 alive.
  constexpr int kHalf = kLinks / 2;
  for (int id = 0; id < kHalf; ++id) {
    serve.submit(id, make_report(kReportSeed, id, 4, table));
  }
  serve.drain_all();
  EXPECT_EQ(serve.rebinds(), static_cast<std::uint64_t>(kHalf));
  EXPECT_EQ(destroyed.load(), 0);

  // The rest report too; the last rider's rebind destroys generation 0.
  for (int id = kHalf; id < kLinks; ++id) {
    serve.submit(id, make_report(kReportSeed, id, 4, table));
  }
  for (int id = 0; id < kLinks; ++id) {
    serve.submit(id, make_report(kReportSeed, id, 5, table));
  }
  serve.drain_all();
  EXPECT_EQ(serve.rebinds(), static_cast<std::uint64_t>(kLinks));
  EXPECT_EQ(destroyed.load(), 1);

  const auto gen1_cache = gen1->engine().response_matrix().cache_stats();
  const std::string after = serve.scrape();
  EXPECT_EQ(scraped(after, "serve_panel_cache_misses_total"), gen1_cache.misses);
  EXPECT_EQ(scraped(after, "serve_panel_cache_hits_total"), gen1_cache.hits);
  EXPECT_GT(gen1_cache.misses + gen1_cache.hits, 0u);
  EXPECT_EQ(serve.current_assets().get(), gen1.get());
}

TEST(ServeDeterminism, ConcurrentSwapsRetireEveryGenerationSwappedOut) {
  // Three generations are published while the consumer runs and two
  // producers feed every link in every phase. Nothing is lost, every
  // session ends on the last generation, and each generation swapped out
  // is destroyed once no session rides it.
  std::atomic<int> destroyed{0};
  const PatternTable table = testutil::synthetic_table();
  ServeConfig serve_config;
  serve_config.queue_capacity = 256;
  serve_config.threads = 2;
  serve_config.measure_latency = false;
  ServeDaemon serve(make_counted_assets(destroyed, 0.0), session_config(),
                    serve_config);
  for (int id = 0; id < kLinks; ++id) serve.add_link(id, link_rng(id));
  serve.start();

  constexpr int kSwaps = 3;
  constexpr std::uint64_t kPerPhase = 20;
  std::shared_ptr<const PatternAssets> last;
  for (int phase = 0; phase <= kSwaps; ++phase) {
    if (phase > 0) {
      // Published while the consumer is still draining the last phase.
      last = make_counted_assets(destroyed, 0.5 * phase);
      serve.swap_assets(last);
    }
    // Producer p feeds the links with id % 2 == p.
    std::vector<std::thread> producers;
    for (int p = 0; p < 2; ++p) {
      producers.emplace_back([&serve, &table, p, phase] {
        const std::uint64_t first = static_cast<std::uint64_t>(phase) * kPerPhase;
        for (std::uint64_t r = first; r < first + kPerPhase; ++r) {
          for (int id = p; id < kLinks; id += 2) {
            serve.submit(id, make_report(kReportSeed, id, r, table));
          }
        }
      });
    }
    for (std::thread& t : producers) t.join();
  }
  serve.stop();
  serve.drain_all();  // anything accepted in the stop window

  EXPECT_EQ(serve.submitted(), (kSwaps + 1) * kPerPhase * kLinks);
  EXPECT_EQ(serve.processed(), serve.submitted());
  EXPECT_EQ(serve.rejected(), 0u);
  EXPECT_EQ(serve.assets_epoch(), static_cast<std::uint64_t>(kSwaps));
  for (int id = 0; id < kLinks; ++id) {
    EXPECT_EQ(serve.daemon().session(id).assets().get(), last.get());
  }
  // A link rebinds at most once per swap, and at least once overall.
  EXPECT_GE(serve.rebinds(), static_cast<std::uint64_t>(kLinks));
  EXPECT_LE(serve.rebinds(), static_cast<std::uint64_t>(kSwaps * kLinks));
  EXPECT_EQ(destroyed.load(), kSwaps);
}

TEST(ServeDeterminism, TrySubmitAppliesBackpressureWhenFull) {
  auto assets = make_serve_assets();
  ServeConfig serve_config;
  serve_config.queue_capacity = 8;
  serve_config.measure_latency = false;
  ServeDaemon serve(assets, {}, serve_config);
  serve.add_link(0, link_rng(0));

  const auto report = make_report(kReportSeed, 0, 0, assets->patterns());
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(serve.try_submit(0, report));
  }
  // Queue full, consumer stopped: the report is rejected, not dropped
  // silently -- the rejection is the caller's signal to retry or shed.
  EXPECT_FALSE(serve.try_submit(0, report));
  EXPECT_EQ(serve.rejected(), 1u);
  EXPECT_EQ(serve.submitted(), 8u);
  EXPECT_EQ(serve.drain_all(), 8u);
  EXPECT_TRUE(serve.try_submit(0, report));
  EXPECT_EQ(serve.drain_all(), 1u);
  EXPECT_EQ(serve.daemon().session(0).rounds(), 9u);
}

TEST(ServeDeterminism, ConcurrentProducersOnOneLinkLoseNothing) {
  auto assets = make_serve_assets();
  ServeConfig serve_config;
  serve_config.queue_capacity = 64;
  ServeDaemon serve(assets, {}, serve_config);
  serve.add_link(0, link_rng(0));
  serve.start();

  // Three producers hammer the SAME link; per-link FIFO means processing
  // follows ticket-claim order, and nothing is lost or duplicated.
  constexpr int kProducers = 3;
  constexpr std::uint64_t kPerProducer = 150;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&serve, &assets, p] {
      for (std::uint64_t r = 0; r < kPerProducer; ++r) {
        serve.submit(0, make_report(kReportSeed, p, r, assets->patterns()));
      }
    });
  }
  for (std::thread& t : producers) t.join();
  serve.stop();
  serve.drain_all();

  EXPECT_EQ(serve.submitted(), kProducers * kPerProducer);
  EXPECT_EQ(serve.processed(), serve.submitted());
  EXPECT_EQ(serve.daemon().session(0).rounds(), kProducers * kPerProducer);
}

TEST(ServeDeterminism, GuardsItsSingleConsumerAndTopologyContracts) {
  auto assets = make_serve_assets();
  ServeDaemon serve(assets);
  serve.add_link(3, link_rng(3));
  EXPECT_THROW(serve.add_link(3, link_rng(3)), StateError);  // duplicate id
  EXPECT_THROW(serve.submit(99, {}), StateError);            // unknown link
  serve.start();
  EXPECT_THROW(serve.add_link(4, link_rng(4)), StateError);  // frozen while running
  EXPECT_THROW(serve.drain_all(), StateError);  // consumer owns the queue
  serve.stop();
  EXPECT_NO_THROW(serve.add_link(4, link_rng(4)));
  EXPECT_EQ(serve.daemon().session_count(), 2u);

  // Readings Eq. 5 cannot use are dropped and counted at the session
  // boundary instead of reaching the kernel: NaN and infinite values, and
  // dB values whose linear square overflows (1e308) or underflows
  // (-1e308). What is left selects exactly as the clean report does, and
  // an all-NaN report takes the empty-sweep path.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::pair<double, double>> hostile = {
      {nan, -60.0}, {3.0, nan},    {inf, -60.0},   {-inf, -60.0},
      {3.0, inf},   {1e308, -60.0}, {3.0, -1e308}, {-1e308, 3.0}};
  CssDaemon twin(assets, CssDaemonConfig{});
  twin.add_headless_link(3, link_rng(3));
  std::uint64_t expected_drops = 0;
  for (std::size_t r = 0; r < hostile.size(); ++r) {
    const std::vector<SectorReading> clean =
        make_report(kReportSeed, 3, r, assets->patterns());
    std::vector<SectorReading> dirty = clean;
    dirty.insert(dirty.begin() + static_cast<long>(r % clean.size()),
                 SectorReading{.sector_id = clean[0].sector_id,
                               .snr_db = hostile[r].first,
                               .rssi_dbm = hostile[r].second});
    serve.submit(3, std::move(dirty));
    twin.process_report(3, clean);
    ++expected_drops;
  }
  std::vector<SectorReading> all_nan =
      make_report(kReportSeed, 3, hostile.size(), assets->patterns());
  for (SectorReading& reading : all_nan) reading.snr_db = nan;
  expected_drops += all_nan.size();
  serve.submit(3, std::move(all_nan));
  twin.process_report(3, {});
  EXPECT_EQ(serve.drain_all(), hostile.size() + 1);
  LinkSessionState served = serve.daemon().session(3).export_state();
  EXPECT_EQ(served.dropped_probes, expected_drops);
  EXPECT_TRUE(served.last_installed_sector.has_value());
  served.dropped_probes = 0;
  EXPECT_EQ(served, twin.session(3).export_state());
  EXPECT_NE(serve.scrape().find("serve_dropped_probes_total " +
                                std::to_string(expected_drops) + "\n"),
            std::string::npos);
}

}  // namespace
}  // namespace talon
