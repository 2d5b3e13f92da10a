// rc_filter.hpp — continuous-time anti-aliasing filter model (the ISIF channel
// has "low-pass filtering for anti-aliasing purpose" ahead of the ΣΔ ADC).
// Modelled as one or two cascaded RC poles stepped analytically, so it is
// exact for piecewise-constant inputs at any dt.
#pragma once

#include <array>
#include <vector>

#include "sim/integrator.hpp"
#include "state/serial.hpp"
#include "util/units.hpp"

namespace aqua::analog {

class RcLowpass {
 public:
  /// `poles` identical first-order sections at cutoff `fc`.
  RcLowpass(util::Hertz fc, int poles = 1);

  double step(double input, util::Seconds dt);

  /// Register-resident per-block state for fused frame kernels (DESIGN.md
  /// §9). step() applies the identical FP update as the scalar step() for
  /// every pole; the constructor caps poles at 4, so fixed arrays suffice.
  struct BlockKernel {
    std::array<double, 4> a{}, y{};
    int poles = 0;
    double step(double x) {
      for (int i = 0; i < poles; ++i) {
        const std::size_t s = static_cast<std::size_t>(i);
        y[s] = (a[s] <= 0.0) ? x : x + (y[s] - x) * a[s];
        x = y[s];
      }
      return x;
    }
  };
  [[nodiscard]] BlockKernel begin_block(util::Seconds dt) const;
  void commit_block(const BlockKernel& k);

  void reset(double value = 0.0);
  [[nodiscard]] double value() const;
  [[nodiscard]] util::Hertz cutoff() const { return fc_; }

  /// Checkpoint support: one pole value per stage (stage count is config).
  void save_state(state::Writer& w) const {
    w.size(stages_.size());
    for (const sim::FirstOrderLag& stage : stages_) w.f64(stage.value());
  }
  void load_state(state::Reader& r) {
    if (r.size(8) != stages_.size())
      throw state::Error("RcLowpass: stage count mismatch");
    for (sim::FirstOrderLag& stage : stages_) stage.reset(r.f64());
  }

 private:
  util::Hertz fc_;
  std::vector<sim::FirstOrderLag> stages_;
};

}  // namespace aqua::analog
