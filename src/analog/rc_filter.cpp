#include "analog/rc_filter.hpp"

#include <stdexcept>

namespace aqua::analog {

using util::Hertz;
using util::Seconds;

RcLowpass::RcLowpass(Hertz fc, int poles) : fc_(fc) {
  if (fc.value() <= 0.0) throw std::invalid_argument("RcLowpass: bad cutoff");
  if (poles < 1 || poles > 4)
    throw std::invalid_argument("RcLowpass: poles out of range [1,4]");
  const Seconds tau{1.0 / (2.0 * 3.14159265358979323846 * fc.value())};
  for (int i = 0; i < poles; ++i) stages_.emplace_back(0.0, tau);
}

double RcLowpass::step(double input, Seconds dt) {
  double x = input;
  for (auto& s : stages_) x = s.step(x, dt);
  return x;
}

RcLowpass::BlockKernel RcLowpass::begin_block(Seconds dt) const {
  BlockKernel k;
  k.poles = static_cast<int>(stages_.size());
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    k.a[i] = stages_[i].decay(dt);
    k.y[i] = stages_[i].value();
  }
  return k;
}

void RcLowpass::commit_block(const BlockKernel& k) {
  for (std::size_t i = 0; i < stages_.size(); ++i) stages_[i].reset(k.y[i]);
}

void RcLowpass::reset(double value) {
  for (auto& s : stages_) s.reset(value);
}

double RcLowpass::value() const { return stages_.back().value(); }

}  // namespace aqua::analog
