#include "calibrate.h"

#include <algorithm>

#include "spans.h"

namespace perfbench {

Calibrator::Calibrator() : keys_(4096) {}

double Calibrator::slice_ms() {
  const std::int64_t start = now_ns();
  for (std::uint32_t& key : keys_) {  // xorshift64
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    key = static_cast<std::uint32_t>(state_);
  }
  std::sort(keys_.begin(), keys_.end());
  return static_cast<double>(now_ns() - start) / 1e6;
}

double Calibrator::mean_slice_ms(std::size_t n) {
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) total += slice_ms();
  return total / static_cast<double>(n);
}

}  // namespace perfbench
