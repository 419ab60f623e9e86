// Ray-based 60 GHz propagation environments.
//
// An Environment turns a TX/RX placement into the sparse set of dominant
// propagation paths (LOS plus first-order specular reflections via image
// sources). Three factory environments mirror the paper's venues:
//  - anechoic chamber (Sec. 4): LOS only,
//  - lab (Sec. 6.1): 3 m link, weak reflectors,
//  - conference room (Sec. 6.1): 6 m link, "a couple of potential
//    reflectors such as white-boards", i.e. stronger multipath that
//    degrades the correlation accuracy in Fig. 7.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "src/common/angles.hpp"
#include "src/common/vec3.hpp"

namespace talon {

/// One propagation path between two nodes.
struct Ray {
  /// Direction the wave leaves the TX, world frame.
  Direction departure_world;
  /// Direction the wave arrives *from*, seen at the RX, world frame
  /// (i.e. the direction the RX antenna must point at to capture it).
  Direction arrival_world;
  /// Path gain excluding both antenna gains [dB]; negative.
  double gain_db{0.0};
};

class Environment {
 public:
  virtual ~Environment() = default;

  /// Dominant rays from `tx` to `rx`. Never empty for distinct positions.
  virtual std::vector<Ray> rays(const Vec3& tx, const Vec3& rx) const = 0;

  virtual std::string name() const = 0;
};

/// An infinite vertical or horizontal reflecting plane.
struct Reflector {
  enum class Plane { X, Y, Z };  // plane {axis} = coordinate
  Plane plane{Plane::Y};
  double coordinate{0.0};
  /// Reflection loss at 60 GHz [dB] (drywall ~10-15, metal/whiteboard ~6-9).
  double loss_db{10.0};
  std::string label;
};

/// Generic environment: LOS plus one image-source reflection per reflector.
class RayTracedEnvironment final : public Environment {
 public:
  RayTracedEnvironment(std::string name, std::vector<Reflector> reflectors,
                       bool line_of_sight = true);

  std::vector<Ray> rays(const Vec3& tx, const Vec3& rx) const override;
  std::string name() const override { return name_; }

  const std::vector<Reflector>& reflectors() const { return reflectors_; }

  /// Attenuate the direct path by `db` (a human torso costs 20-30 dB at
  /// 60 GHz). 0 restores a clear LOS. Reflected paths are unaffected --
  /// this is the scenario where path-tracking algorithms must fall back to
  /// an indirect beam.
  void set_los_blockage_db(double db);

  /// Remove / restore one reflector's specular path without rebuilding
  /// the environment (reflector churn: furniture moved, a door opened, a
  /// whiteboard wheeled away). Disabled reflectors contribute no ray but
  /// keep their index, so churn entities can toggle by stable id.
  void set_reflector_enabled(std::size_t index, bool enabled);
  bool reflector_enabled(std::size_t index) const;

 private:
  std::string name_;
  std::vector<Reflector> reflectors_;
  /// Parallel to reflectors_; char avoids vector<bool> proxy weirdness.
  std::vector<char> reflector_enabled_;
  bool line_of_sight_;
  double los_blockage_db_{0.0};
};

/// Sec. 4: absorber-lined chamber, LOS only.
std::unique_ptr<Environment> make_anechoic_chamber();

/// Sec. 6.1 lab: side wall and ceiling with high reflection loss.
std::unique_ptr<Environment> make_lab_environment();

/// Sec. 6.1 conference room: whiteboard + walls with moderate loss.
std::unique_ptr<Environment> make_conference_room();

}  // namespace talon
