// Host-speed reference for the end-to-end metrics.
//
// On a shared host the speed of one core drifts by a factor of two over
// minutes (co-tenants, frequency), and process CPU time drifts with it.
// The harness therefore times a fixed reference loop, compiled into the
// harness and independent of the library, before every timed operation.
// A sub-pass's summed times are scaled by kNominalMs / (median reference
// pass of the sub-pass), and each operation's latency by kNominalMs /
// (median of the passes taken around it). A scaled time reads
// "reference seconds": host seconds on a core that runs the reference
// loop in exactly kNominalMs. A change to the library moves it; a change
// in host speed that slows the loop and the library alike cancels out.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

class HostRef {
 public:
  /// Host milliseconds of one reference pass on a quiet 4-core Xeon VM
  /// with AVX2; sets the size of a reference second.
  static constexpr double kNominalMs = 1.0;

  /// Times `n` reference passes, each with its memory out of the core's
  /// caches, on each of `threads` threads at once (a workload that runs
  /// on several cores is slowed by what runs beside it, its own threads
  /// included).
  void sample(std::size_t n, std::size_t threads = 1);
  /// Samples taken so far; sample indices run from 0 to count() - 1.
  std::size_t count() const { return samples_.size(); }
  /// Reference seconds per host second over samples [from, to):
  /// kNominalMs over their median.
  double scale(std::size_t from, std::size_t to) const;
  /// Median reference pass over every sample so far, in ms.
  double median_ms() const;

 private:
  std::vector<double> samples_;  ///< Every sample, in ms.
};

/// The process-wide reference used by the workloads.
HostRef& host_ref();

}  // namespace perfbench
