#include "src/core/correlation.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/error.hpp"
#include "tests/core/synthetic_table.hpp"

namespace talon {
namespace {

using testutil::ideal_probes;
using testutil::synthetic_grid;
using testutil::synthetic_table;

CorrelationEngine make_engine(CorrelationDomain domain = CorrelationDomain::kLinear) {
  return CorrelationEngine(synthetic_table(), synthetic_grid(), domain);
}

TEST(Correlation, SurfaceValuesAreNormalized) {
  const CorrelationEngine engine = make_engine();
  const auto probes = ideal_probes(synthetic_table(), {1, 3, 5, 7}, {-20.0, 0.0});
  const Grid2D w = engine.surface(probes, SignalValue::kSnr);
  for (double v : w.values()) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0 + 1e-9);
  }
}

TEST(Correlation, PeakNearTruthWithIdealProbes) {
  const CorrelationEngine engine = make_engine();
  const PatternTable table = synthetic_table();
  for (const Direction truth : {Direction{-20.0, 0.0}, Direction{12.0, 0.0},
                                Direction{0.0, 20.0}}) {
    const auto probes = ideal_probes(table, {1, 2, 3, 4, 5, 6, 7, 8, 9}, truth);
    const Grid2D w = engine.surface(probes, SignalValue::kSnr);
    const auto peak = w.peak();
    EXPECT_LE(angular_separation_deg(peak.direction, truth), 6.0)
        << "truth az " << truth.azimuth_deg;
    EXPECT_GT(peak.value, 0.95);
  }
}

TEST(Correlation, PerfectMatchScoresNearOne) {
  const CorrelationEngine engine = make_engine();
  // -6 deg lies exactly on the 3-deg search grid, so the probe vector is
  // exactly proportional to the stored pattern vector there.
  const auto probes =
      ideal_probes(synthetic_table(), {1, 2, 3, 4, 5, 6, 7}, {-6.0, 0.0});
  const Grid2D w = engine.surface(probes, SignalValue::kSnr);
  const std::size_t ia = synthetic_grid().azimuth.nearest_index(-6.0);
  EXPECT_NEAR(w.at(ia, 0), 1.0, 1e-9);
}

TEST(Correlation, MissingSectorsAreSkipped) {
  const CorrelationEngine engine = make_engine();
  std::vector<SectorReading> probes =
      ideal_probes(synthetic_table(), {2, 4, 6}, {-5.0, 0.0});
  probes.push_back(SectorReading{.sector_id = 99, .snr_db = 12.0, .rssi_dbm = 12.0});
  EXPECT_EQ(engine.usable_probe_count(probes), 3u);
  // Unknown sector must not perturb the result.
  const Grid2D with = engine.surface(probes, SignalValue::kSnr);
  probes.pop_back();
  const Grid2D without = engine.surface(probes, SignalValue::kSnr);
  for (std::size_t i = 0; i < with.values().size(); ++i) {
    EXPECT_DOUBLE_EQ(with.values()[i], without.values()[i]);
  }
}

TEST(Correlation, FewerThanTwoProbesThrows) {
  const CorrelationEngine engine = make_engine();
  const auto one = ideal_probes(synthetic_table(), {1}, {0.0, 0.0});
  EXPECT_THROW(engine.surface(one, SignalValue::kSnr), PreconditionError);
}

TEST(Correlation, RssiSurfaceUsesRssiValues) {
  const CorrelationEngine engine = make_engine();
  auto probes = ideal_probes(synthetic_table(), {2, 4, 6}, {-5.0, 0.0});
  // Corrupt the SNR channel completely; RSSI stays ideal.
  for (SectorReading& r : probes) r.snr_db = 0.0;
  const Grid2D snr_surface = engine.surface(probes, SignalValue::kSnr);
  const Grid2D rssi_surface = engine.surface(probes, SignalValue::kRssi);
  const std::size_t ia = synthetic_grid().azimuth.nearest_index(-5.0);
  EXPECT_GT(rssi_surface.at(ia, 0), snr_surface.at(ia, 0));
}

TEST(Correlation, CombinedSurfaceIsProduct) {
  const CorrelationEngine engine = make_engine();
  auto probes = ideal_probes(synthetic_table(), {1, 3, 5, 7}, {10.0, 0.0});
  probes[1].rssi_dbm += 3.0;  // make SNR and RSSI differ
  const Grid2D snr = engine.surface(probes, SignalValue::kSnr);
  const Grid2D rssi = engine.surface(probes, SignalValue::kRssi);
  const Grid2D combined = engine.combined_surface(probes);
  for (std::size_t i = 0; i < combined.values().size(); ++i) {
    EXPECT_NEAR(combined.values()[i], snr.values()[i] * rssi.values()[i], 1e-12);
  }
}

TEST(Correlation, CombinedToleratesOutlierInOneChannel) {
  // Eq. 5's purpose: a severe outlier in the SNR channel must not drag the
  // peak away when RSSI is clean.
  const CorrelationEngine engine = make_engine();
  const Direction truth{-35.0, 0.0};
  auto probes =
      ideal_probes(synthetic_table(), {1, 2, 3, 4, 5, 6, 7}, truth);
  probes[5].snr_db = 12.0;  // sector 6 (peak at +25) reports a bogus maximum
  const Grid2D combined = engine.combined_surface(probes);
  // Azimuth (the well-constrained axis in this table) must stay accurate;
  // elevation is ambiguous with so few elevation-distinct sectors, as in
  // the paper's independent per-axis evaluation (Sec. 6.2).
  EXPECT_LE(azimuth_distance_deg(combined.peak().direction.azimuth_deg,
                                 truth.azimuth_deg),
            6.0);
}

TEST(Correlation, DbDomainDiffersFromLinear) {
  const auto probes = ideal_probes(synthetic_table(), {1, 3, 5}, {0.0, 0.0});
  const CorrelationEngine lin = make_engine(CorrelationDomain::kLinear);
  const CorrelationEngine db = make_engine(CorrelationDomain::kDb);
  const Grid2D wl = lin.surface(probes, SignalValue::kSnr);
  const Grid2D wd = db.surface(probes, SignalValue::kSnr);
  bool differs = false;
  for (std::size_t i = 0; i < wl.values().size(); ++i) {
    if (std::abs(wl.values()[i] - wd.values()[i]) > 1e-6) {
      differs = true;
      break;
    }
  }
  EXPECT_TRUE(differs);
}

TEST(Correlation, AllReadingsUnknownThrows) {
  // Readings exist, but none maps to a pattern slot: the effective probe
  // vector is empty and the precondition must fire, not a silent surface.
  const CorrelationEngine engine = make_engine();
  const std::vector<SectorReading> unknown{
      SectorReading{.sector_id = 50, .snr_db = 5.0, .rssi_dbm = 5.0},
      SectorReading{.sector_id = 51, .snr_db = 6.0, .rssi_dbm = 6.0},
  };
  EXPECT_EQ(engine.usable_probe_count(unknown), 0u);
  EXPECT_THROW(engine.surface(unknown, SignalValue::kSnr), PreconditionError);
  EXPECT_THROW(engine.combined_surface(unknown), PreconditionError);
}

TEST(Correlation, DuplicateReadingsContributePerOccurrence) {
  // The firmware can report the same sector twice in one drained sweep;
  // every occurrence enters the probe vector (and the slot-sequence norm),
  // exactly as if it were a distinct probe.
  const CorrelationEngine engine = make_engine();
  auto once = ideal_probes(synthetic_table(), {2, 4, 6}, {-5.0, 0.0});
  auto twice = once;
  twice.push_back(once.back());  // sector 6 reported twice
  EXPECT_EQ(engine.usable_probe_count(twice), 4u);
  const Grid2D w_once = engine.surface(once, SignalValue::kSnr);
  const Grid2D w_twice = engine.surface(twice, SignalValue::kSnr);
  bool differs = false;
  for (std::size_t i = 0; i < w_once.values().size(); ++i) {
    if (w_once.values()[i] != w_twice.values()[i]) {
      differs = true;
      break;
    }
  }
  EXPECT_TRUE(differs);  // the duplicate re-weights the correlation
  // Values stay normalized even with the duplicated column.
  for (double v : w_twice.values()) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0 + 1e-9);
  }
}

TEST(Correlation, FusedCombinedMatchesTwoPassBitForBit) {
  // The fused Eq. 5 kernel preserves the seed's operation order: the
  // product surface must equal surface(SNR) * surface(RSSI) exactly --
  // EXPECT_EQ on doubles, not a tolerance.
  const CorrelationEngine engine = make_engine();
  auto probes = ideal_probes(synthetic_table(),
                             {1, 2, 3, 5, 7, 8, 9}, {10.0, 10.0});
  probes[2].rssi_dbm += 2.5;  // decorrelate the two channels
  probes[4].snr_db -= 1.0;
  const Grid2D snr = engine.surface(probes, SignalValue::kSnr);
  const Grid2D rssi = engine.surface(probes, SignalValue::kRssi);
  const Grid2D combined = engine.combined_surface(probes);
  for (std::size_t i = 0; i < combined.values().size(); ++i) {
    EXPECT_EQ(combined.values()[i], snr.values()[i] * rssi.values()[i]) << i;
  }
}

TEST(Correlation, RepeatedSubsetHitsTheNormCache) {
  const CorrelationEngine engine = make_engine();
  const auto probes = ideal_probes(synthetic_table(), {1, 3, 5}, {0.0, 0.0});
  EXPECT_EQ(engine.response_matrix().cached_subset_count(), 0u);
  const Grid2D first = engine.surface(probes, SignalValue::kSnr);
  EXPECT_EQ(engine.response_matrix().cached_subset_count(), 1u);
  const Grid2D second = engine.surface(probes, SignalValue::kSnr);
  EXPECT_EQ(engine.response_matrix().cached_subset_count(), 1u);
  for (std::size_t i = 0; i < first.values().size(); ++i) {
    EXPECT_EQ(first.values()[i], second.values()[i]);
  }
}

TEST(Correlation, EmptyTableRejected) {
  PatternTable empty;
  EXPECT_THROW(CorrelationEngine(empty, synthetic_grid()), PreconditionError);
}

// --- combined_argmax_batch: every member's peak is its own surface's ------

/// A panel member: the given sector ids at `truth`, with a deterministic
/// per-member perturbation so members differ while sharing a slot sequence.
std::vector<SectorReading> panel_member(std::span<const int> ids,
                                        const Direction& truth, std::size_t b) {
  std::vector<SectorReading> probes =
      ideal_probes(synthetic_table(), std::vector<int>(ids.begin(), ids.end()), truth);
  for (std::size_t j = 0; j < probes.size(); ++j) {
    probes[j].snr_db += 0.125 * static_cast<double>(b) + 0.01 * static_cast<double>(j);
    probes[j].rssi_dbm += 0.25 * static_cast<double>(b);
  }
  return probes;
}

void expect_batch_matches_single(const CorrelationEngine& engine,
                                 const std::vector<std::vector<SectorReading>>& panel) {
  const std::vector<std::span<const SectorReading>> spans(panel.begin(), panel.end());
  std::vector<ArgmaxResult> batch(panel.size());
  CorrelationWorkspace ws;
  engine.combined_argmax_batch(spans, batch, ws);
  for (std::size_t b = 0; b < panel.size(); ++b) {
    const std::vector<double> single = engine.combined_surface(panel[b]).values();
    const auto peak = std::max_element(single.begin(), single.end());
    // EXPECT_EQ on doubles: grouping must change nothing, not just little.
    EXPECT_EQ(batch[b].index, static_cast<std::size_t>(peak - single.begin()))
        << "member " << b;
    EXPECT_EQ(batch[b].value, *peak) << "member " << b;
  }
}

TEST(CorrelationBatch, SingletonBatchMatchesSingle) {
  const CorrelationEngine engine = make_engine();
  expect_batch_matches_single(
      engine, {panel_member(std::vector<int>{1, 3, 5, 7}, {-10.0, 0.0}, 0)});
}

TEST(CorrelationBatch, SharedSubsetBatchMatchesSingleBitForBit) {
  const CorrelationEngine engine = make_engine();
  const std::vector<int> ids{1, 2, 4, 6, 8};
  std::vector<std::vector<SectorReading>> panel;
  for (std::size_t b = 0; b < 3; ++b) {
    panel.push_back(panel_member(ids, {5.0, 10.0}, b));
  }
  expect_batch_matches_single(engine, panel);
}

TEST(CorrelationBatch, RaggedBatchOf64MatchesSingle) {
  // 64 members cycling through different subsets (sizes 3..5), some with an
  // unknown sector appended: the batch splits into per-slot-sequence panels
  // and must still reproduce the scalar path member by member.
  const CorrelationEngine engine = make_engine();
  const std::vector<std::vector<int>> subsets{
      {1, 3, 5}, {2, 4, 6, 8}, {1, 2, 3, 4, 5}, {7, 8, 9}};
  std::vector<std::vector<SectorReading>> panel;
  for (std::size_t b = 0; b < 64; ++b) {
    const Direction truth{-30.0 + static_cast<double>(b), 0.0};
    std::vector<SectorReading> probes =
        panel_member(subsets[b % subsets.size()], truth, b);
    if (b % 5 == 0) {
      probes.push_back(
          SectorReading{.sector_id = 99, .snr_db = 3.0, .rssi_dbm = -55.0});
    }
    panel.push_back(std::move(probes));
  }
  expect_batch_matches_single(engine, panel);
}

TEST(CorrelationBatch, EmptyBatchReturnsNoSurfaces) {
  const CorrelationEngine engine = make_engine();
  const std::vector<std::span<const SectorReading>> none;
  CorrelationWorkspace ws;
  EXPECT_NO_THROW(engine.combined_argmax_batch(none, {}, ws));
  EXPECT_EQ(ws.growth_events(), 0u);
}

TEST(CorrelationBatch, MemberWithTooFewProbesThrows) {
  const CorrelationEngine engine = make_engine();
  const auto good = panel_member(std::vector<int>{1, 3, 5}, {0.0, 0.0}, 0);
  const auto bad = ideal_probes(synthetic_table(), {1}, {0.0, 0.0});
  const std::vector<std::span<const SectorReading>> panel{good, bad};
  std::vector<ArgmaxResult> out(panel.size());
  CorrelationWorkspace ws;
  EXPECT_THROW(engine.combined_argmax_batch(panel, out, ws), PreconditionError);
}

}  // namespace
}  // namespace talon
