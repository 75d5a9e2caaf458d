// bench_compare: the perf-regression gate for the micro_phy baseline.
//
// Reads two obs metrics JSON files (the single-line export written by
// `--metrics-out`, see EXPERIMENTS.md "BENCH_phy.json schema") with the
// repo's one JSON reader, obs::json, and compares every pinned gauge —
// a gauge is pinned when its name starts with "bench." and ends with
// ".ns_per_op", i.e. the per-benchmark timings micro_phy's ObsReporter
// exports. A current value more than
// `--max-regress` (fraction, default 0.25) above the baseline fails the
// gate, as does a pinned gauge missing from the current run (a renamed
// or deleted benchmark must come with a refreshed baseline).
//
// Usage:
//   bench_compare --baseline bench/BENCH_phy.json --current out.json
//                 [--max-regress 0.25]
//
// Exit status: 0 gate green, 1 regression (or missing gauge), 2 usage
// or parse error (malformed JSON, or a gauge value that is not a
// number).
//
// Faster-than-baseline results pass and are reported as candidates for
// a baseline refresh; the baseline is only rewritten by hand (commit
// the new file), never by this tool.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace {

/// Reads the top-level "gauges" object of a metrics export. Throws
/// std::runtime_error naming the file on unreadable or malformed JSON and
/// naming the gauge on a non-number value (including the null the
/// exporter writes for NaN/Inf).
std::map<std::string, double> load_gauges(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  witag::obs::json::Value doc;
  try {
    doc = witag::obs::json::Value::parse(buf.str());
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
  if (!doc.is_object() || !doc.has("gauges")) {
    throw std::runtime_error(path + ": no top-level \"gauges\" object");
  }
  const witag::obs::json::Value& gauges = doc.at("gauges");
  if (!gauges.is_object()) {
    throw std::runtime_error(path + ": \"gauges\" is not an object");
  }
  std::map<std::string, double> out;
  for (const auto& [name, value] : gauges.members()) {
    if (!value.is_number()) {
      throw std::runtime_error(path + ": expected numeric gauge value for " +
                               name);
    }
    out[name] = value.as_number();
  }
  return out;
}

bool ends_with(const std::string& name, const std::string& suffix) {
  return name.size() >= suffix.size() &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// HDR histograms export <name>.p50/.p90/.p99/.p999/.max quantile
/// gauges into the same flat gauge map (see obs/metrics.hpp). Those are
/// observability, not a perf contract: distribution tails are too noisy
/// to gate on and may be absent entirely when a run records no samples
/// — so they are never pinned, and a baseline that carries them never
/// fails on their absence from the current run.
bool is_quantile_gauge(const std::string& name) {
  for (const char* suffix : {".p50", ".p90", ".p99", ".p999", ".max"}) {
    if (ends_with(name, suffix)) return true;
  }
  return false;
}

bool is_pinned(const std::string& name) {
  const std::string prefix = "bench.";
  const std::string suffix = ".ns_per_op";
  return name.size() > prefix.size() + suffix.size() &&
         name.compare(0, prefix.size(), prefix) == 0 &&
         ends_with(name, suffix) && !is_quantile_gauge(name);
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path;
  std::string current_path;
  double max_regress = 0.25;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--baseline" && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (arg == "--current" && i + 1 < argc) {
      current_path = argv[++i];
    } else if (arg == "--max-regress" && i + 1 < argc) {
      max_regress = std::strtod(argv[++i], nullptr);
    } else {
      std::cerr << "bench_compare: unknown or incomplete option " << arg
                << "\n";
      return 2;
    }
  }
  if (baseline_path.empty() || current_path.empty() ||
      !(max_regress > 0.0) || !std::isfinite(max_regress)) {
    std::cerr << "usage: bench_compare --baseline FILE --current FILE "
                 "[--max-regress FRACTION]\n";
    return 2;
  }

  std::map<std::string, double> baseline;
  std::map<std::string, double> current;
  try {
    baseline = load_gauges(baseline_path);
    current = load_gauges(current_path);
  } catch (const std::runtime_error& e) {
    std::cerr << "bench_compare: " << e.what() << "\n";
    return 2;
  }

  // Every pinned gauge is checked before anything fails: the gate
  // reports the complete set of regressions in one run (worst first),
  // never just the first one it happens to walk into — one CI round
  // trip shows the whole damage. tools/bench_fixtures/
  // current_multi_regress.json pins this in the lint.bench_* tests.
  struct Failure {
    double ratio;  // current/baseline; +inf for a missing gauge
    std::string line;
  };
  std::size_t pinned = 0;
  std::vector<Failure> failures;
  std::vector<std::string> improvements;
  for (const auto& [name, base] : baseline) {
    if (is_quantile_gauge(name)) {
      if (current.find(name) == current.end()) {
        std::cout << "  skip " << name
                  << ": quantile gauge absent from current (not gated)\n";
      }
      continue;
    }
    if (!is_pinned(name)) continue;
    ++pinned;
    const auto it = current.find(name);
    if (it == current.end()) {
      failures.push_back({std::numeric_limits<double>::infinity(),
                          name + ": missing from current run"});
      continue;
    }
    const double cur = it->second;
    const double ratio = base > 0.0 ? cur / base : 0.0;
    std::ostringstream line;
    line << name << ": baseline " << base << " ns, current " << cur
         << " ns (x" << ratio << ")";
    if (cur > base * (1.0 + max_regress)) {
      failures.push_back({ratio, line.str() + " exceeds +" +
                                     std::to_string(max_regress * 100.0) +
                                     "%"});
    } else {
      std::cout << "  ok  " << line.str() << "\n";
      if (cur < base * (1.0 - max_regress)) {
        improvements.push_back(line.str());
      }
    }
  }

  if (pinned == 0) {
    std::cerr << "bench_compare: baseline " << baseline_path
              << " pins no bench.*.ns_per_op gauges\n";
    return 2;
  }
  // New pinned-shaped gauges in the current run are not gated (the
  // baseline predates them) but should not slip by silently either.
  for (const auto& [name, cur] : current) {
    if (!is_pinned(name)) continue;
    if (baseline.find(name) == baseline.end()) {
      std::cout << "  note new pinned gauge not in baseline (add on next "
                   "refresh): " << name << " = " << cur << " ns\n";
    }
  }
  std::stable_sort(failures.begin(), failures.end(),
                   [](const Failure& a, const Failure& b) {
                     return a.ratio > b.ratio;
                   });
  for (const auto& f : failures) std::cout << "  FAIL " << f.line << "\n";
  for (const auto& imp : improvements) {
    std::cout << "  note faster than baseline, consider refreshing: " << imp
              << "\n";
  }
  if (!failures.empty()) {
    std::cout << "bench_compare: " << failures.size() << " of " << pinned
              << " pinned gauges regressed beyond "
              << max_regress * 100.0 << "% (worst first above)\n";
    return 1;
  }
  std::cout << "bench_compare: " << pinned << " pinned gauges within "
            << max_regress * 100.0 << "% of baseline\n";
  return 0;
}
