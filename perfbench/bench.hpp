// Shared declarations of the end-to-end round benchmark: the workloads
// (workloads.cpp), the span profile built from obs::Tracer::events()
// (profile.cpp) and the layer replay for the un-spanned parts of a round
// (replay.cpp). main.cpp drives them and prints one JSON report line.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

/// Simulated outcome of one sub-pass. A pure function of (workload,
/// seed, sub-pass index): it must not change with tracing, worker count,
/// SIMD tier or how often the sub-pass is replayed.
struct Stats {
  std::uint64_t exchanges = 0;        ///< Query/block-ack exchanges, probes included.
  std::uint64_t bits = 0;             ///< Tag bits scheduled (raw workloads).
  std::uint64_t bit_errors = 0;
  std::uint64_t rounds_lost = 0;      ///< Exchanges with no usable block ack.
  std::uint64_t deliveries_ok = 0;    ///< Supervised payload deliveries.
  std::uint64_t deliveries_failed = 0;
  std::uint64_t payload_bits_ok = 0;
  std::uint64_t rounds_skipped = 0;   ///< Predictive-scheduler skips.
  std::uint64_t useful_rounds = 0;    ///< Rounds whose bits reached the app.
  std::uint64_t droplets = 0;
  std::uint64_t events = 0;           ///< City calendar events.
  std::uint64_t fault_events = 0;
  double airtime_us = 0.0;            ///< Simulated on-air time (+ backoff).

  bool operator==(const Stats&) const = default;
  Stats& operator+=(const Stats& o);
};

/// Host-side measurements of one sub-pass, in host seconds unless
/// marked reference (host_ref.hpp).
struct Timing {
  double op_s = 0.0;          ///< Host time of the timed operations.
  double cpu_s = 0.0;         ///< Process CPU time of the same operations.
  double setup_s = 0.0;       ///< Set-up of this sub-pass (one sample).
  /// Latency of each timed operation, in reference ms.
  std::vector<double> op_ms;
  /// First reference sample taken for each timed operation.
  std::vector<std::size_t> op_first_sample;
  /// Reference seconds per host second over the sub-pass; main.cpp
  /// scales op_s, cpu_s and setup_s by it.
  double ref_scale = 1.0;
  std::size_t live_sessions = 0;
  // city_384 only (from sim::CityResult).
  double sim_serial_ms = 0.0;
  std::size_t sim_jobs = 0;
};

struct PassResult {
  Stats stats;
  Timing timing;
};

/// One workload: a fixed cycle of sub-passes, each seeded from
/// (seed, sub-pass index), so a run replays identical inputs.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Sub-passes in one cycle.
  virtual std::size_t cycle() const = 0;
  virtual PassResult run_pass(std::size_t index) = 0;
  /// Extra output check run once after the timed loop; returns an empty
  /// string when it passes, else what differed.
  virtual std::string extra_check() { return {}; }
  /// Layer replay on this workload's own config and frames.
  virtual std::map<std::string, double> replay_us() = 0;
};

/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

/// Per-span-name totals merged across threads.
struct SpanTotals {
  std::uint64_t count = 0;
  double inclusive_us = 0.0;
  double self_us = 0.0;
};

/// In-memory span profile: nests each thread's complete ('X') events by
/// interval containment and charges a span its duration minus the time
/// its direct children cover.
class Profile {
 public:
  /// Name of the root span the harness records around each timed call.
  static constexpr const char* kOpSpan = "perfbench.op";

  void add(const std::vector<witag::obs::TraceEvent>& events);
  const std::map<std::string, SpanTotals>& spans() const { return spans_; }
  double self_us(const std::string& name) const;
  /// Time on a thread between consecutive top-level spans that are not
  /// harness roots: the un-spanned loop that issues them (the city
  /// engine's event loop on its worker threads).
  double gap_us() const { return gap_us_; }

 private:
  std::map<std::string, SpanTotals> spans_;
  double gap_us_ = 0.0;
};

}  // namespace perfbench
