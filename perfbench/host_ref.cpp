#include "host_ref.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <functional>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <thread>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#endif

namespace perfbench {

namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr std::size_t kStates = 64;
constexpr std::size_t kSteps = 8192;
/// Twice the 2 MiB per-core L2 of the reference host.
constexpr std::size_t kEvictBytes = 4u << 20;
using SurvivorRow = std::array<std::uint8_t, kStates>;

/// Sign masks (0.0 or -0.0) of the branch metrics per next state.
struct AcsSigns {
  alignas(32) std::array<double, kStates> a0{};
  alignas(32) std::array<double, kStates> b0{};
  alignas(32) std::array<double, kStates> a1{};
  alignas(32) std::array<double, kStates> b1{};
};

AcsSigns make_signs() {
  AcsSigns sg;
  for (std::size_t ns = 0; ns < kStates; ++ns) {
    sg.a0[ns] = (ns & 1) ? -0.0 : 0.0;
    sg.b0[ns] = (ns & 2) ? -0.0 : 0.0;
    sg.a1[ns] = (ns & 1) ? 0.0 : -0.0;
    sg.b1[ns] = (ns & 32) ? -0.0 : 0.0;
  }
  return sg;
}

const AcsSigns kSigns = make_signs();

/// Branch-metric inputs of step t, from a fixed generator.
struct Llrs {
  std::uint32_t lcg = 0x9e3779b9u;
  void next(double& la, double& lb) {
    lcg = lcg * 1664525u + 1013904223u;
    la = static_cast<double>(lcg >> 16) / 32768.0 - 1.0;
    lb = static_cast<double>(lcg & 0xffffu) / 32768.0 - 1.0;
  }
};

/// Next states ns and ns + 32 share the predecessors 2ns and 2ns + 1.
void acs_sweep_scalar(double* pm, double* next, SurvivorRow* survivors) {
  Llrs llrs;
  for (std::size_t t = 0; t < kSteps; ++t) {
    double la = 0.0;
    double lb = 0.0;
    llrs.next(la, lb);
    for (std::size_t ns = 0; ns < kStates; ++ns) {
      const std::size_t s0 = 2 * (ns % (kStates / 2));
      const double m0 = pm[s0] + std::copysign(la, kSigns.a0[ns]) +
                        std::copysign(lb, kSigns.b0[ns]);
      const double m1 = pm[s0 + 1] + std::copysign(la, kSigns.a1[ns]) +
                        std::copysign(lb, kSigns.b1[ns]);
      const bool take1 = m1 > m0;
      next[ns] = take1 ? m1 : m0;
      survivors[t][ns] = take1 ? 1 : 0;
    }
    const double top = *std::max_element(next, next + kStates);
    for (std::size_t ns = 0; ns < kStates; ++ns) pm[ns] = next[ns] - top;
  }
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PERFBENCH_HOST_REF_AVX2 1
/// The same sweep with four doubles per vector, as the library's AVX2
/// decoder runs it; co-tenants that load the vector units slow it alike.
[[gnu::target("avx2")]] void acs_sweep_avx2(double* pm, double* next,
                                            SurvivorRow* survivors) {
  Llrs llrs;
  for (std::size_t t = 0; t < kSteps; ++t) {
    double la = 0.0;
    double lb = 0.0;
    llrs.next(la, lb);
    const __m256d la_v = _mm256_set1_pd(la);
    const __m256d lb_v = _mm256_set1_pd(lb);
    __m256d top = _mm256_set1_pd(-1e300);
    for (std::size_t j = 0; j < kStates / 2; j += 4) {
      const __m256d v0 = _mm256_load_pd(pm + 2 * j);
      const __m256d v1 = _mm256_load_pd(pm + 2 * j + 4);
      const __m256d evens = _mm256_permute4x64_pd(
          _mm256_unpacklo_pd(v0, v1), _MM_SHUFFLE(3, 1, 2, 0));
      const __m256d odds = _mm256_permute4x64_pd(
          _mm256_unpackhi_pd(v0, v1), _MM_SHUFFLE(3, 1, 2, 0));
      for (std::size_t half = 0; half < 2; ++half) {
        const std::size_t ns = j + half * (kStates / 2);
        const __m256d pa0 = _mm256_xor_pd(la_v, _mm256_load_pd(&kSigns.a0[ns]));
        const __m256d pb0 = _mm256_xor_pd(lb_v, _mm256_load_pd(&kSigns.b0[ns]));
        const __m256d pa1 = _mm256_xor_pd(la_v, _mm256_load_pd(&kSigns.a1[ns]));
        const __m256d pb1 = _mm256_xor_pd(lb_v, _mm256_load_pd(&kSigns.b1[ns]));
        const __m256d m0 = _mm256_add_pd(_mm256_add_pd(evens, pa0), pb0);
        const __m256d m1 = _mm256_add_pd(_mm256_add_pd(odds, pa1), pb1);
        const __m256d take1 = _mm256_cmp_pd(m1, m0, _CMP_GT_OQ);
        const __m256d best = _mm256_blendv_pd(m0, m1, take1);
        _mm256_store_pd(next + ns, best);
        top = _mm256_max_pd(top, best);
        const int mask = _mm256_movemask_pd(take1);
        for (std::size_t lane = 0; lane < 4; ++lane) {
          survivors[t][ns + lane] = static_cast<std::uint8_t>((mask >> lane) & 1);
        }
      }
    }
    top = _mm256_max_pd(top, _mm256_permute4x64_pd(top, _MM_SHUFFLE(1, 0, 3, 2)));
    top = _mm256_max_pd(top, _mm256_permute_pd(top, 0x5));
    for (std::size_t ns = 0; ns < kStates; ns += 4) {
      _mm256_store_pd(pm + ns, _mm256_sub_pd(_mm256_load_pd(next + ns), top));
    }
  }
}
#endif

/// The reference pass: the two kinds of work a round spends its time
/// on. A 64-state add-compare-select sweep in doubles with a byte
/// survivor row per step and a traceback (the Viterbi decoder's loop and
/// a 512 KiB survivor memory, so cache pressure from co-tenants shows
/// here as there), and a complex multiply-accumulate (channel rendering
/// and equalisation). Returns a value that depends on every step, so
/// none is elided.
[[gnu::noinline]] std::uint32_t reference_pass(SurvivorRow* survivors) {
  alignas(32) std::array<double, kStates> pm{};
  alignas(32) std::array<double, kStates> next{};
#ifdef PERFBENCH_HOST_REF_AVX2
  static const bool avx2 = __builtin_cpu_supports("avx2") != 0;
  if (avx2) {
    acs_sweep_avx2(pm.data(), next.data(), survivors);
  } else {
    acs_sweep_scalar(pm.data(), next.data(), survivors);
  }
#else
  acs_sweep_scalar(pm.data(), next.data(), survivors);
#endif
  std::size_t state = 0;
  std::uint32_t path = 0;
  for (std::size_t t = kSteps; t-- > 0;) {
    const std::size_t prev = 2 * (state % (kStates / 2)) + survivors[t][state];
    path = path * 3u + static_cast<std::uint32_t>(state & 1);
    state = prev;
  }

  constexpr std::size_t kTaps = 64;
  std::array<double, kTaps> re{};
  std::array<double, kTaps> im{};
  for (std::size_t k = 0; k < kTaps; ++k) {
    re[k] = 1.0 / static_cast<double>(k + 1);
    im[k] = 0.5 / static_cast<double>(k + 2);
  }
  double acc_re = 1.0;
  double acc_im = 0.0;
  for (int r = 0; r < 100; ++r) {
    for (std::size_t k = 0; k < kTaps; ++k) {
      const double nr = acc_re * re[k] - acc_im * im[k] + 0.25;
      acc_im = acc_re * im[k] + acc_im * re[k];
      acc_re = nr;
    }
  }
  return path + static_cast<std::uint32_t>(acc_re * 1e3 + acc_im);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::atomic<std::uint32_t> g_sink{0};

}  // namespace

/// Memory one sampling thread keeps across calls.
struct ThreadBuffers {
  std::vector<SurvivorRow> survivors = std::vector<SurvivorRow>(kSteps);
  std::vector<std::uint8_t> evict = std::vector<std::uint8_t>(kEvictBytes);
};

void HostRef::sample(std::size_t n, std::size_t threads) {
  static std::vector<ThreadBuffers> buffers;
  while (buffers.size() < threads) buffers.emplace_back();
  std::vector<std::vector<double>> timed(threads);
  auto run = [n](ThreadBuffers& buf, std::vector<double>& out) {
    for (std::size_t i = 0; i < n; ++i) {
      // Every timed pass starts with its survivor memory out of the
      // core's caches, as a round finds its own after the previous one.
      for (std::size_t b = 0; b < buf.evict.size(); b += 64) ++buf.evict[b];
      const double t0 = now_ms();
      g_sink.fetch_add(reference_pass(buf.survivors.data()),
                       std::memory_order_relaxed);
      out.push_back(now_ms() - t0);
    }
  };
  std::vector<std::thread> helpers;
  for (std::size_t t = 1; t < threads; ++t) {
    helpers.emplace_back(run, std::ref(buffers[t]), std::ref(timed[t]));
  }
  run(buffers[0], timed[0]);
  for (auto& h : helpers) h.join();
  for (const auto& v : timed) samples_.insert(samples_.end(), v.begin(), v.end());
}

double HostRef::scale(std::size_t from, std::size_t to) const {
  if (from >= to || to > samples_.size()) {
    throw std::logic_error("HostRef: empty or unknown sample range");
  }
  return kNominalMs /
         median(std::vector<double>(
             samples_.begin() + static_cast<std::ptrdiff_t>(from),
             samples_.begin() + static_cast<std::ptrdiff_t>(to)));
}

double HostRef::median_ms() const {
  return samples_.empty() ? 0.0 : median(samples_);
}

HostRef& host_ref() {
  static HostRef ref;
  return ref;
}

}  // namespace perfbench
