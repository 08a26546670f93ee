// Host-speed calibration for the benchmark's timings.
//
// The benchmark runs on shared virtual machines whose speed drifts by tens
// of percent over seconds to minutes, and no clock removes that: thread CPU
// time tracks wall time, and pinning does not help. A calibration slice is a
// fixed piece of compute-bound work owned by the benchmark (generating and
// sorting 4096 integers, cache-resident), never library code, so no library
// change can move it. Slices interleaved with the timed items measure how
// fast the host runs at that moment, and every reported time is scaled by
// kReferenceSliceMs over the mean slice time measured around it: times read
// as they would on a host whose slice takes kReferenceSliceMs.
//
// Of the slices tried, this one tracked the drift best. A pointer chase
// through a 2 MiB cycle and a 4 MiB fill (memory-bound) removed a fifth of
// the run-to-run spread at most, the sort half or more on the serial
// workloads. Slices on three threads at once, to match the pool workload,
// were noisier than the pool workload itself and made it less steady.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Slice time that defines the reference host speed (about the median
/// slice time on the 4-vCPU VM the benchmark was tuned on).
inline constexpr double kReferenceSliceMs = 0.25;

class Calibrator {
 public:
  Calibrator();

  /// Runs one slice and returns its wall time in milliseconds.
  double slice_ms();
  /// Runs `n` slices and returns their mean wall time in milliseconds.
  double mean_slice_ms(std::size_t n);

 private:
  std::vector<std::uint32_t> keys_;
  std::uint64_t state_ = 0x9E3779B97F4A7C15ULL;
};

/// Factor that scales a time measured alongside slices whose mean time was
/// `mean_slice_ms` to the reference speed.
inline double speed_factor(double mean_slice_ms) {
  return mean_slice_ms > 0.0 ? kReferenceSliceMs / mean_slice_ms : 1.0;
}

}  // namespace perfbench
