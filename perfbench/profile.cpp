#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "bench.hpp"

namespace perfbench {

void Profile::add(const std::vector<witag::obs::TraceEvent>& events) {
  std::map<std::uint32_t, std::vector<const witag::obs::TraceEvent*>> by_tid;
  for (const auto& ev : events) {
    if (ev.ph == 'X') by_tid[ev.tid].push_back(&ev);
  }
  for (auto& [tid, spans] : by_tid) {
    // Parents first: earlier start, and on a tie the longer span.
    std::sort(spans.begin(), spans.end(), [](const auto* a, const auto* b) {
      if (a->ts_us != b->ts_us) return a->ts_us < b->ts_us;
      return a->dur_us > b->dur_us;
    });
    struct Open {
      const witag::obs::TraceEvent* ev;
      double child_us;
    };
    std::vector<Open> stack;
    double prev_top_end = -1.0;
    auto close = [&] {
      const Open& top = stack.back();
      SpanTotals& t = spans_[top.ev->name];
      ++t.count;
      t.inclusive_us += top.ev->dur_us;
      t.self_us += std::max(0.0, top.ev->dur_us - top.child_us);
      stack.pop_back();
    };
    for (const auto* ev : spans) {
      // Timestamps are microsecond doubles from one steady clock; the
      // tolerance absorbs rounding at shared edges.
      while (!stack.empty() &&
             ev->ts_us + ev->dur_us >
                 stack.back().ev->ts_us + stack.back().ev->dur_us + 1e-3) {
        close();
      }
      if (!stack.empty()) {
        stack.back().child_us += ev->dur_us;
      } else if (std::string_view(ev->name) != kOpSpan) {
        if (prev_top_end >= 0.0) gap_us_ += std::max(0.0, ev->ts_us - prev_top_end);
        prev_top_end = ev->ts_us + ev->dur_us;
      }
      stack.push_back({ev, 0.0});
    }
    while (!stack.empty()) close();
  }
}

double Profile::self_us(const std::string& name) const {
  const auto it = spans_.find(name);
  return it == spans_.end() ? 0.0 : it->second.self_us;
}

}  // namespace perfbench
