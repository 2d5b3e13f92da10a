// common.hpp — shared scaffolding for the experiment binaries: the standard
// rig configuration used across experiments, a calibrated estimator factory,
// and uniform report headers so every bench prints "paper vs measured" rows.
#pragma once

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "core/estimator.hpp"
#include "core/rig.hpp"
#include "sim/schedule.hpp"
#include "util/table.hpp"

namespace aqua::bench {

/// The evaluation campaign's full scale (paper §5: 0–250 cm/s).
inline util::MetresPerSecond full_scale() { return util::metres_per_second(2.5); }

/// Standard rig: Vinci-station-like line, fast ISIF preset, default CTA.
inline cta::RigConfig standard_rig(std::uint64_t seed = 42) {
  cta::RigConfig cfg;
  cfg.isif = cta::fast_isif_config();
  cfg.line.turbulence_intensity = 0.02;
  cfg.line.valve_tau = util::Seconds{1.0};
  cfg.seed = seed;
  return cfg;
}

/// Calibration speeds used by the campaign (m/s, mean line velocity).
inline std::vector<double> calibration_speeds() {
  return {0.0, 0.1, 0.25, 0.5, 0.9, 1.4, 2.0, 2.5};
}

/// Commissions the rig and runs the King's-law calibration sweep.
inline cta::KingFit commission_and_calibrate(cta::VinciRig& rig) {
  rig.commission(util::Seconds{2.0});
  const auto speeds = calibration_speeds();
  return rig.calibrate(speeds, util::Seconds{1.5});
}

/// Report banner: experiment id, the paper artefact it regenerates, and what
/// the paper reports — so the console output reads like EXPERIMENTS.md rows.
inline void banner(const std::string& id, const std::string& artefact,
                   const std::string& paper_claim) {
  std::cout << "\n================================================================\n"
            << id << " — reproduces " << artefact << "\n"
            << "paper: " << paper_claim << "\n"
            << "================================================================\n";
}

inline void print(const util::Table& table) { table.print(std::cout); }

}  // namespace aqua::bench
