// The three workloads. Each sub-pass builds its inputs from
// (seed, sub-pass index) alone and is timed from outside the library:
// the harness times calls into Session::run_round, sim::run_city and
// LinkSupervisor::deliver, and wraps each in a Profile::kOpSpan span so a
// traced run has one root per timed operation.
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <ctime>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "faults/fault_plan.hpp"
#include "host_ref.hpp"
#include "mac/station.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "replay.hpp"
#include "sim/city.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"
#include "witag/config.hpp"
#include "witag/reader.hpp"
#include "witag/session.hpp"
#include "witag/supervisor.hpp"

namespace perfbench {

Stats& Stats::operator+=(const Stats& o) {
  exchanges += o.exchanges;
  bits += o.bits;
  bit_errors += o.bit_errors;
  rounds_lost += o.rounds_lost;
  deliveries_ok += o.deliveries_ok;
  deliveries_failed += o.deliveries_failed;
  payload_bits_ok += o.payload_bits_ok;
  rounds_skipped += o.rounds_skipped;
  useful_rounds += o.useful_rounds;
  droplets += o.droplets;
  events += o.events;
  fault_events += o.fault_events;
  airtime_us += o.airtime_us;
  return *this;
}

namespace {

using namespace witag;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Exchanges the library has run so far (every Session::exchange bumps
/// it, probes included); always on when observability is compiled in.
std::uint64_t exchanges_so_far() {
  return obs::sharded_counter("session.exchanges").value();
}

/// Times one serial call, after `ref_samples` reference passes, and
/// records it as a root span when tracing is on. The call never blocks,
/// so its CPU time is its latency on a core of its own; on a shared host
/// that leaves out the time other tenants held the core, which the host
/// time keeps.
template <typename Fn>
void timed_op(Timing& timing, std::size_t ref_samples, Fn&& fn) {
  timing.op_first_sample.push_back(host_ref().count());
  host_ref().sample(ref_samples);
  const double cpu0 = cpu_s();
  const double t0 = now_s();
  {
    obs::ScopedSpan span(Profile::kOpSpan, "perfbench");
    fn();
  }
  const double dt = now_s() - t0;
  const double cpu = cpu_s() - cpu0;
  timing.op_ms.push_back(cpu * 1e3);
  timing.op_s += dt;
  timing.cpu_s += cpu;
}

/// Host seconds `fn` takes, after one reference pass.
template <typename Fn>
double timed_setup(Fn&& fn) {
  host_ref().sample(1);
  const double t0 = now_s();
  fn();
  return now_s() - t0;
}

/// Converts a sub-pass whose reference samples start at `first_sample`
/// to reference time: its sums by the median pass of the whole sub-pass,
/// each latency by the median of the passes taken for the operations
/// before, at and after it, which follows the host's speed from one
/// operation to the next.
void finish_pass(Timing& timing, std::size_t first_sample) {
  const HostRef& ref = host_ref();
  const std::size_t end = ref.count();
  timing.ref_scale = ref.scale(first_sample, end);
  const std::vector<std::size_t>& at = timing.op_first_sample;
  for (std::size_t i = 0; i < timing.op_ms.size(); ++i) {
    const std::size_t from = at[i > 0 ? i - 1 : i];
    const std::size_t to = i + 2 < at.size() ? at[i + 2] : end;
    timing.op_ms[i] *= ref.scale(from, to);
  }
}

// --- fig5_link ------------------------------------------------------
// The paper's Figure 5 protocol: LOS testbed, tag 1..7 m from the
// client, 64-subframe A-MPDUs at MCS 5, one Session per (position, run),
// serial on one thread. No faults, supervisor or cross-cell lanes.
class Fig5Link final : public Workload {
 public:
  explicit Fig5Link(std::uint64_t seed) : seed_(seed) {}
  std::size_t cycle() const override { return 8; }

  PassResult run_pass(std::size_t index) override {
    PassResult out;
    const std::uint64_t pass_seed = util::Rng::derive_seed(seed_, index);
    const std::size_t first_sample = host_ref().count();
    std::vector<std::unique_ptr<core::Session>> sessions;
    out.timing.setup_s = timed_setup([&] {
      for (unsigned pos = 1; pos <= kPositions; ++pos) {
        sessions.push_back(
            std::make_unique<core::Session>(config(pass_seed, pos)));
      }
    });
    out.timing.live_sessions = sessions.size();

    const std::uint64_t ex0 = exchanges_so_far();
    core::LinkMetrics metrics;
    for (auto& session : sessions) {
      for (std::size_t r = 0; r < kRoundsPerSession; ++r) {
        core::Session::RoundResult res;
        timed_op(out.timing, 1, [&] { res = session->run_round(); });
        if (res.lost) {
          metrics.record_round(res.sent, {}, true, res.airtime_us);
        } else {
          metrics.record_round(res.sent, res.received, false, res.airtime_us);
        }
      }
      out.stats.fault_events += session->fault_counts().total();
    }
    out.stats.exchanges = exchanges_so_far() - ex0;
    out.stats.bits = metrics.bits();
    out.stats.bit_errors = metrics.bit_errors();
    out.stats.rounds_lost = metrics.rounds_lost();
    out.stats.useful_rounds = metrics.rounds() - metrics.rounds_lost();
    out.stats.airtime_us = metrics.elapsed_us().value();
    finish_pass(out.timing, first_sample);
    return out;
  }

  std::map<std::string, double> replay_us() override {
    return replay_round_layers(config(seed_, 4), 24);
  }

 private:
  static constexpr unsigned kPositions = 7;
  static constexpr std::size_t kRoundsPerSession = 16;

  static core::SessionConfig config(std::uint64_t pass_seed, unsigned pos) {
    return core::los_testbed_config(util::Meters{static_cast<double>(pos)},
                                    util::Rng::derive_seed(pass_seed, pos));
  }

  std::uint64_t seed_;
};

// --- city_384 -------------------------------------------------------
// sim::run_city over 128 cells (384 nodes), 8-subframe queries at MCS 5,
// 8 shards. Short rounds, many independent cells per shard, epoch
// barriers and 128 session set-ups per call.
class City384 final : public Workload {
 public:
  explicit City384(std::uint64_t seed) : seed_(seed) {}
  // 48 cities of 2 epochs each: the call-time quantiles of a run then
  // rest on 48 distinct inputs, not on which few of them are slowest.
  std::size_t cycle() const override { return 48; }

  PassResult run_pass(std::size_t index) override {
    PassResult out = run(index, kJobs);
    if (index == 0 && !first_) first_ = out.stats;
    return out;
  }

  /// The determinism contract: the same statistics at 1 worker.
  std::string extra_check() override {
    if (!first_) return "sub-pass 0 never ran";
    const Stats serial = run(0, 1).stats;
    if (serial == *first_) return {};
    std::ostringstream os;
    os << "run_city at 1 worker gave " << serial.exchanges << " exchanges / "
       << serial.bit_errors << " bit errors, at " << kJobs << " workers "
       << first_->exchanges << " / " << first_->bit_errors;
    return os.str();
  }

  std::map<std::string, double> replay_us() override {
    // One cell's session config, exactly as run_city builds it.
    core::SessionConfig cfg = core::los_testbed_config(
        util::Meters{kTagPosM},
        util::Rng::derive_seed(util::Rng::derive_seed(seed_, 0), 0));
    cfg.query.mcs_index = kMcs;
    cfg.query.n_subframes = kSubframes;
    return replay_round_layers(cfg, 48);
  }

 private:
  // Half of the 4 cores the reference host reports: on a shared host a
  // co-tenant can take a core from a 4-worker run mid-way.
  static constexpr std::size_t kJobs = 2;
  static constexpr unsigned kMcs = 5;
  static constexpr unsigned kSubframes = 8;
  static constexpr double kTagPosM = 2.0;
  // Reference passes per worker before and after each call (one per
  // sub-pass).
  static constexpr std::size_t kRefSamples = 8;

  PassResult run(std::size_t index, std::size_t jobs) const {
    sim::CityConfig cfg;
    cfg.n_cells = 128;
    cfg.n_shards = 8;
    cfg.n_subframes = kSubframes;
    cfg.mcs = kMcs;
    cfg.tag_pos_m = kTagPosM;
    cfg.epochs = 2;
    cfg.epoch_us = 500.0;
    cfg.seed = util::Rng::derive_seed(seed_, index);

    PassResult out;
    const std::size_t first_sample = host_ref().count();
    out.timing.op_first_sample.push_back(first_sample);
    host_ref().sample(kRefSamples, jobs);
    const std::uint64_t ex0 = exchanges_so_far();
    const double cpu0 = cpu_s();
    const double t0 = now_s();
    sim::CityResult res;
    {
      obs::ScopedSpan span(Profile::kOpSpan, "perfbench");
      res = sim::run_city(cfg, jobs);
    }
    const double call_s = now_s() - t0;
    const double wall_s = res.wall_ms / 1e3;
    // Session construction and sharding happen inside the call but
    // outside CityResult::wall_ms; they are this workload's set-up, and
    // run single-threaded, so their CPU time is their wall time.
    out.timing.setup_s = call_s - wall_s;
    out.timing.op_s = wall_s;
    out.timing.op_ms.push_back(res.wall_ms);
    out.timing.cpu_s = std::max(0.0, cpu_s() - cpu0 - out.timing.setup_s);
    out.timing.live_sessions = cfg.n_cells;
    out.timing.sim_serial_ms = res.serial_estimate_ms;
    out.timing.sim_jobs = res.jobs;

    out.stats.exchanges = exchanges_so_far() - ex0;
    out.stats.bits = res.merged.bits();
    out.stats.bit_errors = res.merged.bit_errors();
    out.stats.rounds_lost = res.merged.rounds_lost();
    out.stats.useful_rounds = res.merged.rounds() - res.merged.rounds_lost();
    out.stats.events = res.events;
    out.stats.airtime_us = res.merged.elapsed_us().value();
    host_ref().sample(kRefSamples, jobs);
    finish_pass(out.timing, first_sample);
    return out;
  }

  std::uint64_t seed_;
  std::optional<Stats> first_;
};

// --- hostile_secure -------------------------------------------------
// LinkSupervisor::deliver with the LT rateless code and the predictive
// burst scheduler, under faults::hostile_plan(0.5), CCMP and the
// envelope trigger path; tag at 3 m, one session per sub-pass, run
// serially.
class HostileSecure final : public Workload {
 public:
  explicit HostileSecure(std::uint64_t seed) : seed_(seed) {}
  // 34 sessions of three deliveries per cycle. How long a delivery
  // takes depends mostly on its session (the clock-drift walk can leave
  // a whole session unable to deliver), so many short sessions keep the
  // seed-to-seed spread of the delivery-time median small.
  std::size_t cycle() const override { return 34; }

  PassResult run_pass(std::size_t index) override {
    PassResult out;
    const std::size_t first_sample = host_ref().count();
    std::optional<core::Session> session;
    std::optional<core::Reader> reader;
    std::optional<core::LinkSupervisor> supervisor;
    out.timing.setup_s = timed_setup([&] {
      session.emplace(config(util::Rng::derive_seed(seed_, index)));
      core::ReaderConfig rcfg;
      rcfg.fec = core::TagFec::kRateless;
      rcfg.max_rounds_per_frame = 16;
      reader.emplace(*session, rcfg);
      core::SupervisorConfig scfg;
      scfg.payload_bytes = 8;
      scfg.predictive = true;
      supervisor.emplace(*reader, scfg);
    });
    out.timing.live_sessions = 1;

    const std::uint64_t ex0 = exchanges_so_far();
    for (std::size_t d = 0; d < kDeliveries; ++d) {
      core::LinkSupervisor::DeliveryResult res;
      timed_op(out.timing, kRefSamples, [&] { res = supervisor->deliver(0); });
      if (res.ok) {
        out.stats.payload_bits_ok += 8 * res.payload.size();
        // The rateless decoder keeps droplets across failed polls of one
        // delivery, so every transmitted round of a delivered payload
        // contributed to it.
        out.stats.useful_rounds += res.rounds - res.rounds_skipped;
      }
    }
    const auto& st = supervisor->stats();
    out.stats.exchanges = exchanges_so_far() - ex0;
    out.stats.rounds_lost = reader->stats().rounds_lost;
    out.stats.deliveries_ok = st.deliveries_ok;
    out.stats.deliveries_failed = st.deliveries_failed;
    out.stats.rounds_skipped = st.rounds_skipped;
    out.stats.droplets = st.droplets_used;
    out.stats.fault_events = session->fault_counts().total();
    out.stats.airtime_us = (st.airtime_us + st.backoff_us).value();
    finish_pass(out.timing, first_sample);
    return out;
  }

  std::map<std::string, double> replay_us() override {
    return replay_round_layers(config(seed_), 24);
  }

 private:
  static constexpr std::size_t kDeliveries = 3;
  // Reference passes before each delivery, so a sub-pass has enough.
  static constexpr std::size_t kRefSamples = 4;

  static core::SessionConfig config(std::uint64_t session_seed) {
    core::SessionConfig cfg =
        core::los_testbed_config(util::Meters{3.0}, session_seed);
    cfg.faults = faults::hostile_plan(0.5);
    cfg.security.mode = mac::Security::kCcmp;
    cfg.security.ccmp_key = {0x57, 0x69, 0x54, 0x41, 0x47, 0x2d, 0x62, 0x65,
                             0x6e, 0x63, 0x68, 0x2d, 0x6b, 0x65, 0x79, 0x31};
    cfg.trigger_mode = core::TriggerMode::kEnvelope;
    return cfg;
  }

  std::uint64_t seed_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "fig5_link") return std::make_unique<Fig5Link>(seed);
  if (name == "city_384") return std::make_unique<City384>(seed);
  if (name == "hostile_secure") return std::make_unique<HostileSecure>(seed);
  return nullptr;
}

}  // namespace perfbench
