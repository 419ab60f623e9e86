// Shared heavyweight fixture: one measured pattern table and one set of
// recorded lab sweeps, built once per test binary. Mirrors the paper's
// pipeline (campaign in the chamber, evaluation elsewhere) at a coarse,
// fast resolution.
#pragma once

#include <memory>

#include "src/measure/campaign.hpp"
#include "src/sim/experiment.hpp"

namespace talon::testutil {

struct ExperimentWorld {
  PatternTable table;
  std::vector<SweepRecord> lab_records;
  std::vector<SweepRecord> conference_records;

  static const ExperimentWorld& instance() {
    static const ExperimentWorld world = build();
    return world;
  }

  /// The table's shared assets on the default CSS search grid (what a
  /// link session built from the measured table rides).
  std::shared_ptr<const PatternAssets> assets() const {
    const CssConfig css;
    return PatternAssetsRegistry::global().get_or_create(table, css.search_grid,
                                                         css.domain);
  }

 private:
  static ExperimentWorld build() {
    ExperimentWorld world;
    constexpr std::uint64_t kDutSeed = 42;  // same device in all venues

    Scenario chamber = make_anechoic_scenario(kDutSeed);
    CampaignConfig campaign;
    campaign.azimuth = make_axis(-90.0, 90.0, 3.6);
    campaign.elevation = make_axis(0.0, 32.4, 5.4);
    campaign.repetitions = 3;
    world.table = measure_sector_patterns(chamber, campaign).table;

    RecordingConfig lab_rec;
    for (double az = -60.0; az <= 60.0; az += 10.0) {
      lab_rec.head_azimuths_deg.push_back(az);
    }
    lab_rec.head_tilts_deg = {0.0, 10.0, 20.0};
    lab_rec.sweeps_per_pose = 6;
    lab_rec.seed = 101;
    Scenario lab = make_lab_scenario(kDutSeed);
    world.lab_records = record_sweeps(lab, lab_rec);

    RecordingConfig conf_rec;
    for (double az = -60.0; az <= 60.0; az += 10.0) {
      conf_rec.head_azimuths_deg.push_back(az);
    }
    conf_rec.head_tilts_deg = {0.0};
    conf_rec.sweeps_per_pose = 10;
    conf_rec.seed = 102;
    Scenario conf = make_conference_scenario(kDutSeed);
    world.conference_records = record_sweeps(conf, conf_rec);
    return world;
  }
};

}  // namespace talon::testutil
