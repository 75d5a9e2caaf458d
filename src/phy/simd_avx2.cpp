// AVX2 kernels (four doubles per vector): Viterbi add-compare-select
// and separable soft demap. This TU is compiled with -mavx2 (and
// deliberately WITHOUT -mfma: the scalar code the kernels must match
// bit for bit is built with no contraction, so the kernels stick to
// packed mul/add/sub — an FMA here would round differently). When the
// compiler cannot target AVX2 the file only defines avx2_kernels()
// returning null, and dispatch stays scalar.

#include "phy/simd.hpp"

#include <cstdint>
#include <limits>

#include "phy/trellis.hpp"

#if defined(__AVX2__)
#include <immintrin.h>
#include <cstddef>
#endif

namespace witag::phy::simd::kernels {

#if defined(__AVX2__)

namespace {

void acs_run_avx2(const double* llrs, std::size_t n_steps, double* metrics,
                  std::uint64_t* dec) {
  const detail::AcsSigns& sg = detail::kAcsSigns;
  const __m256d sign = _mm256_set1_pd(-0.0);
  detail::run_trellis(
      llrs, n_steps, metrics, dec,
      [&sg, sign](const double* cur, double* nxt, double la, double lb) {
        const __m256d la_v = _mm256_set1_pd(la);
        const __m256d lb_v = _mm256_set1_pd(lb);
        std::uint64_t word = 0;
        // Four butterflies per pass: next states ns..ns+3 and
        // ns+32..ns+35 from predecessors cur[2ns .. 2ns+7].
        for (std::uint32_t ns = 0; ns < kNumStates / 2; ns += 4) {
          // Two 128-bit halves per register put cur[2ns], cur[2ns+1],
          // cur[2ns+4], cur[2ns+5] beside cur[2ns+2] .. cur[2ns+7], so
          // one in-lane unpack splits the s0 (even) from the s1 (odd)
          // predecessors.
          const __m256d c0145 = _mm256_insertf128_pd(
              _mm256_castpd128_pd256(_mm_load_pd(cur + 2 * ns)),
              _mm_load_pd(cur + 2 * ns + 4), 1);
          const __m256d c2367 = _mm256_insertf128_pd(
              _mm256_castpd128_pd256(_mm_load_pd(cur + 2 * ns + 2)),
              _mm_load_pd(cur + 2 * ns + 6), 1);
          const __m256d evens = _mm256_unpacklo_pd(c0145, c2367);
          const __m256d odds = _mm256_unpackhi_pd(c0145, c2367);
          // Branch metrics via sign-bit XOR: ±llr exactly as the scalar
          // pa[e]/pb[e] tables (see detail::AcsSigns for the symmetry).
          const __m256d pa = _mm256_xor_pd(la_v, _mm256_load_pd(&sg.a[ns]));
          const __m256d pb = _mm256_xor_pd(lb_v, _mm256_load_pd(&sg.b[ns]));
          const __m256d na = _mm256_xor_pd(pa, sign);
          const __m256d nb = _mm256_xor_pd(pb, sign);
          // Same (cur + pa) + pb association as the scalar code.
          const __m256d lo0 = _mm256_add_pd(_mm256_add_pd(evens, pa), pb);
          const __m256d lo1 = _mm256_add_pd(_mm256_add_pd(odds, na), nb);
          const __m256d hi0 = _mm256_add_pd(_mm256_add_pd(evens, na), nb);
          const __m256d hi1 = _mm256_add_pd(_mm256_add_pd(odds, pa), pb);
          // Strict m1 > m0 (ordered): ties keep the s0 branch, like the
          // scalar code. vmaxpd(a, b) is defined as a > b ? a : b (b on
          // ties, signed zeros and NaN), so it is that select exactly.
          _mm256_store_pd(nxt + ns, _mm256_max_pd(lo1, lo0));
          _mm256_store_pd(nxt + ns + kNumStates / 2, _mm256_max_pd(hi1, hi0));
          const auto lo_bits = static_cast<std::uint64_t>(
              _mm256_movemask_pd(_mm256_cmp_pd(lo1, lo0, _CMP_GT_OQ)));
          const auto hi_bits = static_cast<std::uint64_t>(
              _mm256_movemask_pd(_mm256_cmp_pd(hi1, hi0, _CMP_GT_OQ)));
          word |= (lo_bits << ns) | (hi_bits << (ns + kNumStates / 2));
        }
        return word;
      });
}

void demap_block_avx2(const double* re, const double* im, const double* nv,
                      std::size_t count, const DemapAxes& ax, double* out) {
  const unsigned ni = 1u << ax.i_bits;
  const unsigned nq = 1u << ax.q_bits;
  const __m256d inf =
      _mm256_set1_pd(std::numeric_limits<double>::infinity());
  std::size_t p = 0;
  for (; p + 4 <= count; p += 4) {
    // SoA spans land at arbitrary lane offsets inside vector-owned
    // storage, so these loads cannot assume 32-byte alignment.
    const __m256d yr =
        _mm256_loadu_pd(re + p);  // witag-lint: allow(simd-unaligned)
    const __m256d yi =
        _mm256_loadu_pd(im + p);  // witag-lint: allow(simd-unaligned)
    const __m256d noise =
        _mm256_loadu_pd(nv + p);  // witag-lint: allow(simd-unaligned)
    __m256d min_i = inf, min_q = inf;
    __m256d min0_i[4], min1_i[4], min0_q[4], min1_q[4];
    for (unsigned b = 0; b < ax.i_bits; ++b) min0_i[b] = min1_i[b] = inf;
    for (unsigned b = 0; b < ax.q_bits; ++b) min0_q[b] = min1_q[b] = inf;
    for (unsigned j = 0; j < ni; ++j) {
      const __m256d d = _mm256_sub_pd(yr, _mm256_set1_pd(ax.i_levels[j]));
      const __m256d sq = _mm256_mul_pd(d, d);
      min_i = _mm256_min_pd(min_i, sq);
      for (unsigned b = 0; b < ax.i_bits; ++b) {
        if ((j >> b) & 1u) {
          min1_i[b] = _mm256_min_pd(min1_i[b], sq);
        } else {
          min0_i[b] = _mm256_min_pd(min0_i[b], sq);
        }
      }
    }
    for (unsigned q = 0; q < nq; ++q) {
      const __m256d d = _mm256_sub_pd(yi, _mm256_set1_pd(ax.q_levels[q]));
      const __m256d sq = _mm256_mul_pd(d, d);
      min_q = _mm256_min_pd(min_q, sq);
      for (unsigned b = 0; b < ax.q_bits; ++b) {
        if ((q >> b) & 1u) {
          min1_q[b] = _mm256_min_pd(min1_q[b], sq);
        } else {
          min0_q[b] = _mm256_min_pd(min0_q[b], sq);
        }
      }
    }
    alignas(32) double lanes[4];
    for (unsigned b = 0; b < ax.i_bits; ++b) {
      const __m256d m1 = _mm256_add_pd(min1_i[b], min_q);
      const __m256d m0 = _mm256_add_pd(min0_i[b], min_q);
      const __m256d llr = _mm256_div_pd(_mm256_sub_pd(m1, m0), noise);
      _mm256_store_pd(lanes, llr);
      for (unsigned lane = 0; lane < 4; ++lane) {
        out[(p + lane) * ax.n_bits + b] = lanes[lane];
      }
    }
    for (unsigned b = 0; b < ax.q_bits; ++b) {
      const __m256d m1 = _mm256_add_pd(min_i, min1_q[b]);
      const __m256d m0 = _mm256_add_pd(min_i, min0_q[b]);
      const __m256d llr = _mm256_div_pd(_mm256_sub_pd(m1, m0), noise);
      _mm256_store_pd(lanes, llr);
      for (unsigned lane = 0; lane < 4; ++lane) {
        out[(p + lane) * ax.n_bits + ax.i_bits + b] = lanes[lane];
      }
    }
  }
  if (p < count) {
    // Tail through the scalar kernel: per-point math is identical, so
    // chunk boundaries never change results.
    kernels_for(Tier::kScalar)
        .demap_block(re + p, im + p, nv + p, count - p, ax,
                     out + p * ax.n_bits);
  }
}

}  // namespace

const Kernels* avx2_kernels() {
  static constexpr Kernels kAvx2{acs_run_avx2, demap_block_avx2};
  static const bool supported = __builtin_cpu_supports("avx2") != 0;
  return supported ? &kAvx2 : nullptr;
}

#else  // !defined(__AVX2__)

const Kernels* avx2_kernels() { return nullptr; }

#endif  // defined(__AVX2__)

}  // namespace witag::phy::simd::kernels
