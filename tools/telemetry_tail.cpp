// telemetry_tail: live terminal readout for a TelemetryStreamer JSONL
// file (bench/soak --stream-out soak.jsonl, RunScope --stream-out).
//
// Modes:
//   --once     read the whole file, print one summary, exit (CI smoke)
//   --follow   keep reading as the producer appends; print one readout
//              line per metrics record; exit when the "final" record
//              arrives (or on EOF if the file already ended with one)
//
// Per-record readout: sequence number, stream time, the headline
// counter's cumulative value and rate since the previous record, span
// and drop totals, and every HDR histogram's p50/p99. The summary adds
// a counters table with average rates and the full quantile set.
//
// Options: <path> (positional or --in PATH), --follow / --once
//          (default --once), --interval-ms N (follow poll period,
//          0..3600000, default 200), --counter NAME (headline counter,
//          default session.exchanges), --expect-metrics N (exit 1
//          unless at least N metrics/final records were seen — CI smoke
//          assertion; 0..1000000000), --timeout-s S (follow gives up
//          when no final record arrives in time, 0..1000000; 0 = wait
//          forever). A numeric value that is not one number in range is
//          a usage error.
//
// Exit codes: 0 ok, 1 expectation failed / timeout, 2 usage or I/O.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/json.hpp"

namespace {

using witag::obs::json::Value;

struct MetricsRecord {
  std::uint64_t seq = 0;
  double ts_us = 0.0;
  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;
  std::uint64_t spans_dropped = 0;
  /// name -> {p50, p90, p99, p999, max, count}
  std::map<std::string, std::map<std::string, double>> hdr;
};

struct TailState {
  std::uint64_t lines = 0;
  std::uint64_t parse_errors = 0;
  std::uint64_t spans = 0;
  std::uint64_t metrics_records = 0;
  bool saw_final = false;
  std::string bench;
  bool have_prev = false;
  MetricsRecord prev;
  MetricsRecord last;
};

/// A count field: a number that fits a uint64 (the cast is undefined
/// otherwise), else std::invalid_argument.
std::uint64_t as_count(const Value& v) {
  const double x = v.as_number();
  if (!(x >= 0.0 && x < 0x1p64)) {
    throw std::invalid_argument("json: not a count");
  }
  return static_cast<std::uint64_t>(x);
}

/// Throws std::logic_error / std::invalid_argument on a field of the
/// wrong kind. A null counter, gauge or hdr value (the streamer writes
/// null for a non-finite number) is skipped; the rest of the record is
/// kept.
MetricsRecord parse_metrics(const Value& doc) {
  MetricsRecord rec;
  if (doc.has("seq")) rec.seq = as_count(doc.at("seq"));
  if (doc.has("ts_us")) rec.ts_us = doc.at("ts_us").as_number();
  if (doc.has("counters")) {
    for (const auto& [name, v] : doc.at("counters").members()) {
      if (!v.is_null()) rec.counters[name] = v.as_number();
    }
  }
  if (doc.has("gauges")) {
    for (const auto& [name, v] : doc.at("gauges").members()) {
      if (!v.is_null()) rec.gauges[name] = v.as_number();
    }
  }
  if (doc.has("spans_dropped")) {
    rec.spans_dropped = as_count(doc.at("spans_dropped"));
  }
  if (doc.has("hdr")) {
    for (const auto& [name, h] : doc.at("hdr").members()) {
      for (const auto& [k, v] : h.members()) {
        if (!v.is_null()) rec.hdr[name][k] = v.as_number();
      }
    }
  }
  return rec;
}

std::string fmt(double v, int digits = 1) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  return buf;
}

void print_readout(const TailState& st, const std::string& headline) {
  const MetricsRecord& rec = st.last;
  std::string line = "[tail] seq " + std::to_string(rec.seq) + " t=" +
                     fmt(rec.ts_us / 1e6, 1) + "s";
  const auto it = rec.counters.find(headline);
  if (it != rec.counters.end()) {
    line += " " + headline + "=" + fmt(it->second, 0);
    if (st.have_prev) {
      const auto pit = st.prev.counters.find(headline);
      const double dt_s = (rec.ts_us - st.prev.ts_us) / 1e6;
      if (pit != st.prev.counters.end() && dt_s > 0.0) {
        line += " (+" + fmt((it->second - pit->second) / dt_s, 1) + "/s)";
      }
    }
  }
  line += " spans=" + std::to_string(st.spans) +
          " dropped=" + std::to_string(rec.spans_dropped);
  for (const auto& [name, q] : rec.hdr) {
    const auto p50 = q.find("p50");
    const auto p99 = q.find("p99");
    if (p50 != q.end() && p99 != q.end()) {
      line += " | " + name + " p50=" + fmt(p50->second, 0) +
              " p99=" + fmt(p99->second, 0);
    }
  }
  std::cout << line << '\n' << std::flush;
}

void print_summary(const TailState& st) {
  const MetricsRecord& rec = st.last;
  std::cout << "=== telemetry summary";
  if (!st.bench.empty()) std::cout << ": " << st.bench;
  std::cout << " ===\n"
            << st.lines << " records (" << st.metrics_records
            << " metrics, " << st.spans << " spans, " << st.parse_errors
            << " parse errors), final record "
            << (st.saw_final ? "present" : "MISSING") << "\n";
  if (st.metrics_records == 0) return;
  const double elapsed_s = rec.ts_us / 1e6;
  std::cout << "stream time " << fmt(elapsed_s, 2) << " s, spans dropped "
            << rec.spans_dropped << "\n\ncounters (cumulative, avg/s):\n";
  for (const auto& [name, v] : rec.counters) {
    std::cout << "  " << name << " = " << fmt(v, 0);
    if (elapsed_s > 0.0) std::cout << "  (" << fmt(v / elapsed_s, 1) << "/s)";
    std::cout << '\n';
  }
  if (!rec.gauges.empty()) {
    std::cout << "\ngauges (last value):\n";
    for (const auto& [name, v] : rec.gauges) {
      std::cout << "  " << name << " = " << fmt(v, 3) << '\n';
    }
  }
  if (!rec.hdr.empty()) {
    std::cout << "\nlatency quantiles:\n";
    for (const auto& [name, q] : rec.hdr) {
      std::cout << "  " << name;
      for (const char* key : {"p50", "p90", "p99", "p999", "max"}) {
        const auto it = q.find(key);
        if (it != q.end()) {
          std::cout << " " << key << "=" << fmt(it->second, 1);
        }
      }
      std::cout << '\n';
    }
  }
}

/// Consumes one JSONL line into the running state. Returns false on a
/// line that is not JSON, not an object, or has a field of the wrong
/// kind (counted in parse_errors, not fatal: a live tail can race a
/// write).
bool consume_line(TailState& st, const std::string& line,
                  bool live, const std::string& headline) {
  if (line.empty()) return true;
  ++st.lines;
  try {
    const Value doc = Value::parse(line);
    const std::string type =
        doc.has("type") ? doc.at("type").as_string() : "";
    if (type == "meta") {
      if (doc.has("bench")) st.bench = doc.at("bench").as_string();
    } else if (type == "span") {
      ++st.spans;
    } else if (type == "metrics" || type == "final") {
      MetricsRecord rec = parse_metrics(doc);
      if (st.metrics_records > 0) {
        st.prev = st.last;
        st.have_prev = true;
      }
      st.last = std::move(rec);
      ++st.metrics_records;
      if (type == "final") st.saw_final = true;
      if (live) print_readout(st, headline);
    }
  } catch (const std::exception&) {
    ++st.parse_errors;
    return false;
  }
  return true;
}

constexpr const char* kUsage =
    "usage: telemetry_tail [--follow|--once] [--interval-ms N]"
    " [--counter NAME] [--expect-metrics N] [--timeout-s S]"
    " <stream.jsonl>\n";

/// Reads a numeric flag value: the whole of `text` must be one number
/// in [lo, hi] (whole when `integral`). Anything else — no digits,
/// trailing bytes, NaN, overflow — is a usage error: exit 2.
double flag_number(const char* flag, const std::string& text, double lo,
                   double hi, bool integral) {
  const char* begin = text.c_str();
  char* end = nullptr;
  const double v = std::strtod(begin, &end);
  if (end == begin || *end != '\0' || !(v >= lo && v <= hi) ||
      (integral && v != std::floor(v))) {
    std::cerr << "telemetry_tail: " << flag << " needs "
              << (integral ? "a whole number" : "a number") << " in ["
              << static_cast<long long>(lo) << ", "
              << static_cast<long long>(hi) << "], got '" << text << "'\n"
              << kUsage;
    std::exit(2);
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  bool follow = false;
  double interval_ms = 200.0;
  std::string headline = "session.exchanges";
  long expect_metrics = -1;
  double timeout_s = 0.0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "telemetry_tail: " << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--follow") {
      follow = true;
    } else if (arg == "--once") {
      follow = false;
    } else if (arg == "--in") {
      path = next("--in");
    } else if (arg == "--interval-ms") {
      interval_ms =
          flag_number("--interval-ms", next("--interval-ms"), 0.0, 3.6e6,
                      false);
    } else if (arg == "--counter") {
      headline = next("--counter");
    } else if (arg == "--expect-metrics") {
      expect_metrics = static_cast<long>(flag_number(
          "--expect-metrics", next("--expect-metrics"), 0.0, 1e9, true));
    } else if (arg == "--timeout-s") {
      timeout_s =
          flag_number("--timeout-s", next("--timeout-s"), 0.0, 1e6, false);
    } else if (!arg.empty() && arg[0] != '-') {
      path = arg;
    } else {
      std::cerr << "telemetry_tail: unknown flag " << arg << "\n" << kUsage;
      return 2;
    }
  }
  if (path.empty()) {
    std::cerr << "telemetry_tail: no input file\n";
    return 2;
  }

  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "telemetry_tail: cannot open " << path << "\n";
    return 2;
  }

  TailState st;
  std::string pending;
  const auto started = std::chrono::steady_clock::now();
  bool timed_out = false;
  for (;;) {
    char buf[1 << 16];
    in.read(buf, sizeof buf);
    const std::streamsize n = in.gcount();
    if (n > 0) {
      pending.append(buf, static_cast<std::size_t>(n));
      std::size_t start = 0;
      for (std::size_t nl = pending.find('\n', start);
           nl != std::string::npos; nl = pending.find('\n', start)) {
        consume_line(st, pending.substr(start, nl - start), follow, headline);
        start = nl + 1;
      }
      pending.erase(0, start);
    }
    if (st.saw_final) break;
    if (in.eof()) {
      if (!follow) break;
      in.clear();  // more may be appended; poll again
      if (timeout_s > 0.0 &&
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        started)
                  .count() > timeout_s) {
        timed_out = true;
        break;
      }
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(interval_ms));
    } else if (!in.good()) {
      std::cerr << "telemetry_tail: read error on " << path << "\n";
      return 2;
    }
  }
  // A last line without a trailing newline only happens on a torn
  // final write; parse it anyway.
  if (!pending.empty()) consume_line(st, pending, follow, headline);

  print_summary(st);
  if (timed_out) {
    std::cerr << "[tail] FAIL: no final record within " << timeout_s
              << " s\n";
    return 1;
  }
  if (expect_metrics >= 0 &&
      st.metrics_records < static_cast<std::uint64_t>(expect_metrics)) {
    std::cerr << "[tail] FAIL: saw " << st.metrics_records
              << " metrics records, expected at least " << expect_metrics
              << "\n";
    return 1;
  }
  return 0;
}
