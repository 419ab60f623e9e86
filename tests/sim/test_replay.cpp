// Determinism contract of the parallel replay engine: every analysis must
// produce bit-identical rows at any thread count (including 1). EXPECT_EQ
// on doubles throughout -- the contract is exact equality, not tolerance.
#include <gtest/gtest.h>

#include "src/sim/experiment.hpp"
#include "tests/sim/experiment_fixture.hpp"

namespace talon {
namespace {

using testutil::ExperimentWorld;

const std::vector<ReplayOptions>& all_modes() {
  static const std::vector<ReplayOptions> modes{
      ReplayOptions{.threads = 1},
      ReplayOptions{.threads = 2},
      ReplayOptions{.threads = 4},
      ReplayOptions{.threads = 7},
  };
  return modes;
}

class ReplayDeterminismTest : public ::testing::Test {
 protected:
  ReplayDeterminismTest() : world_(ExperimentWorld::instance()), css_(world_.table) {}

  const ExperimentWorld& world_;
  CompressiveSectorSelector css_;
  CssSelector selector_{css_};
  RandomSubsetPolicy policy_;
  const std::vector<std::size_t> probes_{6, 14, 26};
};

TEST_F(ReplayDeterminismTest, EstimationErrorRowsIdenticalAcrossModes) {
  const auto baseline = estimation_error_analysis(
      world_.lab_records, selector_, probes_, policy_, 4242,
      ReplayOptions{.threads = 1});
  for (const ReplayOptions& mode : all_modes()) {
    const auto rows = estimation_error_analysis(world_.lab_records, selector_,
                                                probes_, policy_, 4242, mode);
    ASSERT_EQ(rows.size(), baseline.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      SCOPED_TRACE("threads=" + std::to_string(mode.threads) + " row " +
                   std::to_string(i));
      EXPECT_EQ(rows[i].probes, baseline[i].probes);
      EXPECT_EQ(rows[i].samples, baseline[i].samples);
      EXPECT_EQ(rows[i].azimuth_error.median, baseline[i].azimuth_error.median);
      EXPECT_EQ(rows[i].azimuth_error.q25, baseline[i].azimuth_error.q25);
      EXPECT_EQ(rows[i].azimuth_error.q75, baseline[i].azimuth_error.q75);
      EXPECT_EQ(rows[i].azimuth_error.whisker_low, baseline[i].azimuth_error.whisker_low);
      EXPECT_EQ(rows[i].azimuth_error.whisker_high,
                baseline[i].azimuth_error.whisker_high);
      EXPECT_EQ(rows[i].elevation_error.median, baseline[i].elevation_error.median);
      EXPECT_EQ(rows[i].elevation_error.q25, baseline[i].elevation_error.q25);
      EXPECT_EQ(rows[i].elevation_error.q75, baseline[i].elevation_error.q75);
    }
  }
}

TEST_F(ReplayDeterminismTest, SelectionQualityRowsIdenticalAcrossModes) {
  const auto baseline = selection_quality_analysis(
      world_.conference_records, selector_, probes_, policy_, 2121,
      ReplayOptions{.threads = 1});
  for (const ReplayOptions& mode : all_modes()) {
    const auto rows = selection_quality_analysis(world_.conference_records, selector_,
                                                 probes_, policy_, 2121, mode);
    ASSERT_EQ(rows.size(), baseline.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      SCOPED_TRACE("threads=" + std::to_string(mode.threads) + " row " +
                   std::to_string(i));
      EXPECT_EQ(rows[i].probes, baseline[i].probes);
      EXPECT_EQ(rows[i].css_stability, baseline[i].css_stability);
      EXPECT_EQ(rows[i].ssw_stability, baseline[i].ssw_stability);
      EXPECT_EQ(rows[i].css_snr_loss_db, baseline[i].css_snr_loss_db);
      EXPECT_EQ(rows[i].ssw_snr_loss_db, baseline[i].ssw_snr_loss_db);
    }
  }
}

TEST_F(ReplayDeterminismTest, ThroughputPointsIdenticalAcrossThreadCounts) {
  const auto factory = [] { return make_conference_scenario(42); };
  ThroughputConfig config;
  config.head_azimuths_deg = {-45.0, 0.0, 45.0};
  config.sweeps_per_pose = 6;
  config.seed = 5;
  const ThroughputModel model;
  const auto baseline = throughput_analysis(factory, selector_, model, config,
                                            ReplayOptions{.threads = 1});
  for (int threads : {2, 7}) {
    const auto points = throughput_analysis(factory, selector_, model, config,
                                            ReplayOptions{.threads = threads});
    ASSERT_EQ(points.size(), baseline.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      EXPECT_EQ(points[i].head_azimuth_deg, baseline[i].head_azimuth_deg);
      EXPECT_EQ(points[i].css_mbps, baseline[i].css_mbps);
      EXPECT_EQ(points[i].ssw_mbps, baseline[i].ssw_mbps);
    }
  }
}

TEST(RecordingSubstreams, RecordsDependOnlyOnTheirCoordinates) {
  // The substream scheme makes each (pose, sweep) trial independent of how
  // much was recorded around it: fewer sweeps per pose, or a prefix of the
  // azimuth list, must reproduce the shared records bit for bit. The old
  // shared sequential Rng failed both.
  RecordingConfig full;
  full.head_azimuths_deg = {-20.0, 0.0, 20.0};
  full.sweeps_per_pose = 4;
  full.seed = 77;
  Scenario lab_a = make_lab_scenario(3);
  const auto records_full = record_sweeps(lab_a, full);

  RecordingConfig fewer_sweeps = full;
  fewer_sweeps.sweeps_per_pose = 2;
  Scenario lab_b = make_lab_scenario(3);
  const auto records_fewer = record_sweeps(lab_b, fewer_sweeps);

  RecordingConfig fewer_poses = full;
  fewer_poses.head_azimuths_deg = {-20.0, 0.0};
  Scenario lab_c = make_lab_scenario(3);
  const auto records_prefix = record_sweeps(lab_c, fewer_poses);

  const auto expect_same = [](const SweepRecord& a, const SweepRecord& b) {
    ASSERT_EQ(a.pose_index, b.pose_index);
    ASSERT_EQ(a.measurement.readings.size(), b.measurement.readings.size());
    for (std::size_t j = 0; j < a.measurement.readings.size(); ++j) {
      EXPECT_EQ(a.measurement.readings[j].sector_id,
                b.measurement.readings[j].sector_id);
      EXPECT_EQ(a.measurement.readings[j].snr_db, b.measurement.readings[j].snr_db);
      EXPECT_EQ(a.measurement.readings[j].rssi_dbm,
                b.measurement.readings[j].rssi_dbm);
    }
  };

  // Sweeps 0..1 of each pose match the 2-sweep recording.
  ASSERT_EQ(records_fewer.size(), 3u * 2u);
  for (std::size_t pose = 0; pose < 3; ++pose) {
    for (std::size_t s = 0; s < 2; ++s) {
      expect_same(records_full[pose * 4 + s], records_fewer[pose * 2 + s]);
    }
  }
  // The first two poses match the 2-pose recording.
  ASSERT_EQ(records_prefix.size(), 2u * 4u);
  for (std::size_t i = 0; i < records_prefix.size(); ++i) {
    expect_same(records_full[i], records_prefix[i]);
  }
}

}  // namespace
}  // namespace talon
