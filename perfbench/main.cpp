// witag_perfbench: runs one workload for a given time and prints one
// JSON report line (metrics, per-sub-pass statistics, output checks,
// build environment). perfbench/run.py builds this binary, adds the
// pinned-statistics check and prints the benchmark's result line.
//
//   witag_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// The run repeats whole cycles of sub-passes, at least one, and stops at
// the cycle boundary nearest to S seconds, so every run covers the same
// inputs equally often.
// The end-to-end metrics come from untraced sub-passes. With --trace 1
// each sub-pass also runs traced right after, and the report adds the
// per-layer metrics from those traced runs.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "host_ref.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "phy/simd.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::PassResult;
using perfbench::Stats;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

Options parse(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      opt.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      opt.seed = std::stoull(val);
    } else if (key == "--seconds") {
      opt.seconds = std::stod(val);
    } else if (key == "--trace") {
      opt.trace = std::stoi(val) != 0;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (opt.seconds < 0.0) throw std::invalid_argument("--seconds must be >= 0");
  return opt;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

#ifdef __clang__
const std::string kCompiler = "clang ";
#else
const std::string kCompiler = "gcc ";
#endif

/// Totals over a set of sub-passes.
struct Totals {
  Stats stats;
  double op_s = 0.0;
  double cpu_s = 0.0;
  double host_op_s = 0.0;
  double host_cpu_s = 0.0;
  std::vector<double> op_ms;
  std::vector<double> setup_s;
  double sim_serial_ms = 0.0;
  double sim_capacity_ms = 0.0;  ///< wall x workers
  std::size_t live_sessions = 0;

  /// Adds a sub-pass, its times scaled to reference seconds.
  void add(const PassResult& r) {
    const double scale = r.timing.ref_scale;
    stats += r.stats;
    op_s += r.timing.op_s * scale;
    cpu_s += r.timing.cpu_s * scale;
    host_op_s += r.timing.op_s;
    host_cpu_s += r.timing.cpu_s;
    op_ms.insert(op_ms.end(), r.timing.op_ms.begin(), r.timing.op_ms.end());
    setup_s.push_back(r.timing.setup_s * scale);
    sim_serial_ms += r.timing.sim_serial_ms * scale;
    sim_capacity_ms +=
        r.timing.op_s * scale * 1e3 * static_cast<double>(r.timing.sim_jobs);
    live_sessions = std::max(live_sessions, r.timing.live_sessions);
  }
  std::uint64_t ops() const { return op_ms.size(); }
  std::uint64_t deliveries() const {
    return stats.deliveries_ok + stats.deliveries_failed;
  }
  double rounds_per_s() const {
    return ratio(static_cast<double>(stats.exchanges), op_s);
  }
  double delivered_bits() const {
    return deliveries() > 0
               ? static_cast<double>(stats.payload_bits_ok)
               : static_cast<double>(stats.bits - stats.bit_errors);
  }
};

/// Counters the per-layer metrics divide by, read around traced passes.
const char* const kCounters[] = {"phy.viterbi.bits", "channel.apply.symbols",
                                 "phy.batch.lanes", "phy.batch.decodes",
                                 "channel.cfr_rebuild.calls"};

std::map<std::string, double> read_counters() {
  std::map<std::string, double> out;
  for (const char* name : kCounters) {
    out[name] = static_cast<double>(witag::obs::counter(name).value());
  }
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string stats_json(const Stats& s) {
  std::ostringstream os;
  os << "{\"exchanges\":" << s.exchanges << ",\"bits\":" << s.bits
     << ",\"bit_errors\":" << s.bit_errors
     << ",\"rounds_lost\":" << s.rounds_lost
     << ",\"deliveries_ok\":" << s.deliveries_ok
     << ",\"deliveries_failed\":" << s.deliveries_failed
     << ",\"payload_bits_ok\":" << s.payload_bits_ok
     << ",\"rounds_skipped\":" << s.rounds_skipped
     << ",\"useful_rounds\":" << s.useful_rounds
     << ",\"droplets\":" << s.droplets << ",\"events\":" << s.events
     << ",\"fault_events\":" << s.fault_events
     << ",\"airtime_us\":" << num(s.airtime_us) << "}";
  return os.str();
}

std::string metrics_json(const std::map<std::string, double>& metrics) {
  std::string out = "{";
  for (const auto& [name, v] : metrics) {
    if (out.size() > 1) out += ",";
    out += "\"" + name + "\":" + num(v);
  }
  return out + "}";
}

struct Check {
  std::string name;
  std::string failure;  ///< Empty when the check passed.
};

/// Simulated outputs, reported so a behaviour change shows its direction.
void add_simulated(std::map<std::string, double>& m, const Totals& t) {
  const Stats& s = t.stats;
  m["witag.ber"] = ratio(static_cast<double>(s.bit_errors),
                         static_cast<double>(s.bits));
  m["witag.goodput_kbps"] = ratio(t.delivered_bits(), s.airtime_us) * 1e3;
  m["witag.failed_share"] =
      t.deliveries() > 0
          ? ratio(static_cast<double>(s.deliveries_failed),
                  static_cast<double>(t.deliveries()))
          : ratio(static_cast<double>(s.rounds_lost),
                  static_cast<double>(s.exchanges));
}

std::map<std::string, double> end_to_end(const Totals& u) {
  std::map<std::string, double> m;
  m["rounds_per_s"] = u.rounds_per_s();
  m["cpu_us_per_round"] =
      ratio(u.cpu_s * 1e6, static_cast<double>(u.stats.exchanges));
  m["op_p50_ms"] = quantile(u.op_ms, 0.5);
  m["op_p90_ms"] = quantile(u.op_ms, 0.9);
  m["setup_s"] = quantile(u.setup_s, 0.5);
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  m["peak_rss_mb"] = static_cast<double>(ru.ru_maxrss) / 1024.0;
  add_simulated(m, u);
  // The same in plain host seconds, printed beside the metrics.
  const double exchanges = static_cast<double>(u.stats.exchanges);
  m["host.rounds_per_s"] = ratio(exchanges, u.host_op_s);
  m["host.cpu_us_per_round"] = ratio(u.host_cpu_s * 1e6, exchanges);
  m["host.ref_pass_ms"] = perfbench::host_ref().median_ms();
  return m;
}

/// Share denominator: busy time attributed to the library, merged
/// across threads. It is the self time of every library span plus the
/// engine loop between top-level spans. The harness root span and
/// sim.run_city are left out: on the main thread of city_384 the latter
/// mostly waits for the shard workers, whose own spans count instead.
bool in_root(const std::string& span) {
  return span != perfbench::Profile::kOpSpan && span != "sim.run_city";
}

double profile_root_us(const perfbench::Profile& prof) {
  double root_us = prof.gap_us();
  for (const auto& [name, totals] : prof.spans()) {
    if (in_root(name)) root_us += totals.self_us;
  }
  return root_us;
}

std::map<std::string, double> per_layer(
    const Totals& u, const Totals& t, const perfbench::Profile& prof,
    const std::map<std::string, double>& counters,
    const std::map<std::string, double>& replay) {
  std::map<std::string, double> m;
  const Stats& s = t.stats;
  const double exchanges = static_cast<double>(s.exchanges);
  const double root_us = profile_root_us(prof);
  auto share = [&](const char* span) {
    return ratio(prof.self_us(span), root_us);
  };
  auto counter = [&](const char* name) { return counters.at(name); };

  m["phy.viterbi.self_share"] = share("phy.viterbi");
  m["phy.viterbi.ns_per_bit"] =
      ratio(prof.self_us("phy.viterbi") * 1e3, counter("phy.viterbi.bits"));
  m["phy.decode.self_share"] = share("phy.batch");
  m["phy.equalize.self_share"] = share("phy.equalize");
  m["phy.batch.lanes_per_decode"] =
      ratio(counter("phy.batch.lanes"), counter("phy.batch.decodes"));
  m["phy.scratch_bytes"] =
      witag::obs::gauge("phy.batch.scratch_bytes").value() *
      static_cast<double>(t.live_sessions);
  m["channel.apply.self_share"] = share("channel.apply");
  m["channel.apply.ns_per_symbol"] = ratio(
      prof.self_us("channel.apply") * 1e3, counter("channel.apply.symbols"));
  m["channel.cfr_rebuild.self_share"] = share("channel.cfr_rebuild");
  m["channel.cfr_rebuild.per_round"] =
      ratio(counter("channel.cfr_rebuild.calls"), exchanges);

  // Replayed stages run inside session.round / session.probe without a
  // span of their own (detect_trigger has one: tag.detect_trigger).
  m["mac.receive_psdu.us_per_round"] = replay.at("receive_psdu");
  m["witag.build_query.us_per_round"] = replay.at("build_query");
  m["tag.envelope.us_per_round"] =
      replay.at("envelope") + replay.at("detect_trigger");
  const double replayed_us =
      exchanges * (replay.at("build_query") + replay.at("receive_psdu") +
                   replay.at("subframe_outcomes") + replay.at("envelope"));
  const double session_self =
      prof.self_us("session.round") + prof.self_us("session.probe");
  m["witag.session.self_share"] =
      std::max(0.0, ratio(session_self - replayed_us, root_us));

  const double rounds = exchanges + static_cast<double>(s.rounds_skipped);
  const double deliveries = static_cast<double>(t.deliveries());
  // Raw workloads deliver every round's bits straight to the client.
  m["witag.supervisor.rounds_per_delivery"] =
      deliveries > 0.0 ? rounds / deliveries : 1.0;
  m["witag.supervisor.useful_round_share"] =
      ratio(static_cast<double>(s.useful_rounds), rounds);
  m["witag.rateless.droplets_per_delivery"] =
      ratio(static_cast<double>(s.droplets), deliveries);
  m["tag.respond.self_share"] = share("tag.respond");
  m["faults.events_per_round"] =
      ratio(static_cast<double>(s.fault_events), exchanges);

  m["sim.engine.self_share"] = ratio(prof.gap_us(), root_us);
  m["sim.events_per_s"] = ratio(static_cast<double>(s.events), t.op_s);
  const bool sim = t.sim_capacity_ms > 0.0;
  m["sim.setup_ms"] = sim ? quantile(t.setup_s, 0.5) * 1e3 : 0.0;
  m["sim.parallel_efficiency"] = ratio(t.sim_serial_ms, t.sim_capacity_ms);
  m["obs.trace_overhead"] = 1.0 - ratio(t.rounds_per_s(), u.rounds_per_s());
  // Host-time yield of the untraced sub-passes. Not an end-to-end gate:
  // on hostile_secure it swings with how many sessions the clock-drift
  // walk leaves unable to deliver (seed-to-seed IQR 0.36 of the median).
  m["witag.delivered_bits_per_s"] = ratio(u.delivered_bits(), u.op_s);
  add_simulated(m, t);
  return m;
}

int run(const Options& opt) {
  const double start = now_s();
#ifdef __GLIBC__
  // One malloc arena: peak_rss_mb then measures the program's heap, not
  // how many per-thread arenas the city workers happened to attach to
  // (that alone moved it by 30 MB between runs). Freed memory stays in
  // the process, so a sub-pass's set-up reuses it instead of timing the
  // kernel's page faults, whose cost swings with the host's memory load.
  mallopt(M_ARENA_MAX, 1);
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
#endif
  auto workload = perfbench::make_workload(opt.workload, opt.seed);
  if (!workload) {
    std::cerr << "witag_perfbench: unknown workload " << opt.workload << "\n";
    return 2;
  }
  auto& tracer = witag::obs::Tracer::instance();
  tracer.set_enabled(false);

  const std::size_t cycle = workload->cycle();
  std::vector<Stats> first(cycle);
  std::vector<Check> checks;
  Totals untraced;
  Totals traced;
  perfbench::Profile profile;
  std::map<std::string, double> counters;
  for (const char* name : kCounters) counters[name] = 0.0;

  bool replays_match = true;
  bool trace_matches = true;
  std::size_t cycles = 0;
  // Whole cycles only, as many as come closest to the requested time.
  while (cycles == 0 ||
         (now_s() - start) * (1.0 + 0.5 / static_cast<double>(cycles)) <
             opt.seconds) {
    for (std::size_t k = 0; k < cycle; ++k) {
      const PassResult u = workload->run_pass(k);
      untraced.add(u);
      if (cycles == 0) {
        first[k] = u.stats;
      } else if (!(u.stats == first[k])) {
        replays_match = false;
      }
      if (!opt.trace) continue;
      const auto before = read_counters();
      tracer.clear();
      tracer.set_enabled(true);
      const PassResult t = workload->run_pass(k);
      tracer.set_enabled(false);
      profile.add(tracer.events());
      tracer.clear();
      const auto after = read_counters();
      for (const auto& [name, v] : after) counters[name] += v - before.at(name);
      traced.add(t);
      if (!(t.stats == u.stats)) trace_matches = false;
    }
    ++cycles;
  }
  checks.push_back({"replay_identical",
                    replays_match ? "" : "a replayed sub-pass changed its statistics"});
  if (opt.trace) {
    checks.push_back({"traced_equals_untraced",
                      trace_matches ? "" : "tracing changed the statistics"});
  }
  checks.push_back({"workload_invariants", workload->extra_check()});

  Stats cycle_stats;
  for (const Stats& s : first) cycle_stats += s;
  std::string sanity;
  if (cycle_stats.exchanges == 0) sanity = "no exchange ran";
  if (cycle_stats.bits > 0 && 5 * cycle_stats.bit_errors > cycle_stats.bits) {
    sanity = "bit error rate above 0.2";
  }
  if (cycle_stats.deliveries_failed > 0 && cycle_stats.deliveries_ok == 0) {
    sanity = "no payload delivered";
  }
  checks.push_back({"sanity", sanity});

  const auto e2e = end_to_end(untraced);
  std::map<std::string, double> layers;
  if (opt.trace) {
    layers = per_layer(untraced, traced, profile, counters,
                       workload->replay_us());
  }

  bool all_ok = true;
  for (const auto& c : checks) all_ok = all_ok && c.failure.empty();
  // Every operation of a run whose output check fails counts as failed.
  const std::uint64_t attempted = untraced.ops() + traced.ops();
  const std::uint64_t failed_ops = all_ok ? 0 : attempted;

  std::ostringstream os;
  os << "{\"workload\":\"" << opt.workload << "\",\"seed\":" << opt.seed
     << ",\"trace\":" << (opt.trace ? 1 : 0) << ",\"cycles\":" << cycles
     << ",\"env\":{\"build_type\":\"" << PERFBENCH_BUILD_TYPE
     << "\",\"simd_tier\":\""
     << witag::phy::simd::tier_name(witag::phy::simd::active_tier())
     << "\",\"compiler\":\"" << json_escape(kCompiler + __VERSION__)
     << "\",\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
     << "},\"pass_stats\":[";
  for (std::size_t k = 0; k < cycle; ++k) {
    os << (k ? "," : "") << stats_json(first[k]);
  }
  os << "],\"checks\":[";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    os << (i ? "," : "") << "{\"name\":\"" << checks[i].name
       << "\",\"ok\":" << (checks[i].failure.empty() ? "true" : "false")
       << ",\"detail\":\"" << json_escape(checks[i].failure) << "\"}";
  }
  os << "],\"attempted\":" << attempted << ",\"failed\":" << failed_ops
     << ",\"end_to_end\":" << metrics_json(e2e)
     << ",\"per_layer\":" << metrics_json(layers) << ",\"profile\":[";
  bool comma = false;
  for (const auto& [name, s] : profile.spans()) {
    os << (comma ? "," : "") << "{\"name\":\"" << name
       << "\",\"count\":" << s.count << ",\"inclusive_us\":"
       << num(s.inclusive_us) << ",\"self_us\":" << num(s.self_us)
       << ",\"in_root\":" << (in_root(name) ? "true" : "false") << "}";
    comma = true;
  }
  os << "],\"profile_root_us\":" << num(profile_root_us(profile)) << "}";
  std::cout << os.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "witag_perfbench: " << e.what() << "\n";
    return 2;
  }
}
