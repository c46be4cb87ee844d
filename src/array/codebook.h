// Beam codebook modeling the SiBeam reference codebook used by the X60
// testbed (Sec. 4.1): 25 steerable beam patterns spaced ~5 degrees apart in
// their main lobe, spanning -60..60 degrees in azimuth, with a 3 dB
// beamwidth of 25-35 degrees and large side lobes -- deliberately imperfect,
// like the patterns in COTS 60 GHz devices.
#pragma once

#include <cstdint>
#include <vector>

namespace libra::array {

// Identifies a beam inside a codebook. kQuasiOmni is the pseudo-beam used
// for quasi-omni reception during sector sweeps.
using BeamId = int;
inline constexpr BeamId kQuasiOmni = -1;

struct SideLobe {
  double offset_deg;  // angular offset of the side-lobe peak from main lobe
  double gain_db;     // side-lobe peak gain relative to main-lobe peak (< 0)
  double width_deg;   // side-lobe 3 dB width
};

// One entry of the codebook. Gain is a deterministic function of the angle
// relative to the array boresight.
class BeamPattern {
 public:
  BeamPattern(BeamId id, double steer_deg, double hpbw_deg, double peak_gain_dbi,
              std::vector<SideLobe> side_lobes);

  // Directivity gain (dBi) toward `angle_deg` measured from array boresight.
  double gain_dbi(double angle_deg) const;

  BeamId id() const { return id_; }
  double steering_deg() const { return steer_deg_; }
  double hpbw_deg() const { return hpbw_deg_; }
  double peak_gain_dbi() const { return peak_gain_dbi_; }
  const std::vector<SideLobe>& side_lobes() const { return side_lobes_; }

 private:
  BeamId id_;
  double steer_deg_;
  double hpbw_deg_;
  double peak_gain_dbi_;
  std::vector<SideLobe> side_lobes_;
};

inline constexpr double kMinSteerDeg = -60.0;
inline constexpr double kMaxSteerDeg = 60.0;
inline constexpr double kBaseHpbwDeg = 30.0;      // varies 25..35 across beams
inline constexpr double kPeakGainDbi = 17.0;      // 12-element array at 60 GHz
inline constexpr double kQuasiOmniGainDbi = 3.0;  // flat gain in quasi-omni
inline constexpr double kBacklobeFloorDbi = -12.0;
inline constexpr std::uint64_t kPatternSeed = 42;  // fixed side-lobe structure

struct CodebookConfig {
  int num_beams = 25;
};

class Codebook {
 public:
  // Throws std::invalid_argument when num_beams < 1.
  explicit Codebook(const CodebookConfig& config = {});

  int size() const { return static_cast<int>(beams_.size()); }
  const BeamPattern& beam(BeamId id) const;
  const std::vector<BeamPattern>& beams() const { return beams_; }

  // Gain toward angle for either a real beam or kQuasiOmni.
  double gain_dbi(BeamId id, double angle_deg) const;

  // The beam whose steering angle is closest to `angle_deg`.
  BeamId nearest_beam(double angle_deg) const;

 private:
  std::vector<BeamPattern> beams_;
};

}  // namespace libra::array
