// AVX2 kernels (four doubles / two complex doubles per vector): Viterbi
// add-compare-select, separable soft demap, and the fused radix-4 FFT
// passes. This TU is compiled with -mavx2 (and deliberately WITHOUT
// -mfma: the scalar code the kernels must match bit for bit is built
// with no contraction, so the kernels stick to packed mul/add/sub —
// an FMA here would round differently). When the compiler cannot
// target AVX2 the file only defines avx2_kernels() returning null, and
// dispatch stays scalar.

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

using util::Cx;

/// Two complex multiplies a * w matching the scalar naive formula
/// (re = ar*wr - ai*wi, im = ai*wr + ar*wi) operation for operation —
/// addsub provides the subtract in the even lanes and the add in the
/// odd lanes with ordinary IEEE rounding, no FMA.
inline __m256d cmul(__m256d a, __m256d w) {
  const __m256d wr = _mm256_movedup_pd(w);       // [wr0, wr0, wr1, wr1]
  const __m256d wi = _mm256_permute_pd(w, 0xF);  // [wi0, wi0, wi1, wi1]
  const __m256d t1 = _mm256_mul_pd(a, wr);       // [ar*wr, ai*wr, ...]
  const __m256d as = _mm256_permute_pd(a, 0x5);  // [ai, ar, ...]
  const __m256d t2 = _mm256_mul_pd(as, wi);      // [ai*wi, ar*wi, ...]
  return _mm256_addsub_pd(t1, t2);
}

inline __m256d load2(const Cx* p) {
  // Heap CxVec data is only 16-byte aligned, so a 32-byte load of two
  // adjacent complexes must be unaligned.
  return _mm256_loadu_pd(  // witag-lint: allow(simd-unaligned)
      reinterpret_cast<const double*>(p));
}

inline void store2(Cx* p, __m256d v) {
  _mm256_storeu_pd(reinterpret_cast<double*>(p), v);
}

void fft_radix4_pass_avx2(Cx* data, std::size_t n, std::size_t h,
                          const Cx* w1, const Cx* w2) {
  if (h == 1) {
    // Fused len-2 + len-4 stages over blocks of four: w1[0] is exactly
    // (1, 0) but is still multiplied, matching the scalar pass.
    const __m256d w1b =
        _mm256_broadcast_pd(reinterpret_cast<const __m128d*>(w1));
    const __m256d w2v = load2(w2);
    for (std::size_t i = 0; i < n; i += 4) {
      const __m256d r0 = load2(data + i);      // [d0, d1]
      const __m256d r1 = load2(data + i + 2);  // [d2, d3]
      const __m256d us = _mm256_permute2f128_pd(r0, r1, 0x20);  // [d0, d2]
      const __m256d vs = _mm256_permute2f128_pd(r0, r1, 0x31);  // [d1, d3]
      const __m256d t = cmul(vs, w1b);
      const __m256d s = _mm256_add_pd(us, t);   // [s0, s2]
      const __m256d dd = _mm256_sub_pd(us, t);  // [s1, s3]
      const __m256d lo = _mm256_permute2f128_pd(s, dd, 0x20);  // [s0, s1]
      const __m256d hi = _mm256_permute2f128_pd(s, dd, 0x31);  // [s2, s3]
      const __m256d v = cmul(hi, w2v);  // [s2*w2[0], s3*w2[1]]
      store2(data + i, _mm256_add_pd(lo, v));
      store2(data + i + 2, _mm256_sub_pd(lo, v));
    }
    return;
  }
  // Generic fused pass, two butterflies (two k values) per iteration.
  // h >= 2 and a power of two, so k never straddles the block edge.
  for (std::size_t i = 0; i < n; i += 4 * h) {
    for (std::size_t k = 0; k < h; k += 2) {
      const __m256d w1k = load2(w1 + k);
      const __m256d w2k = load2(w2 + k);
      const __m256d w2kh = load2(w2 + k + h);
      const __m256d a = load2(data + i + k);
      const __m256d b = load2(data + i + k + h);
      const __m256d c = load2(data + i + k + 2 * h);
      const __m256d e = load2(data + i + k + 3 * h);
      const __m256d t = cmul(b, w1k);
      const __m256d s0 = _mm256_add_pd(a, t);
      const __m256d s1 = _mm256_sub_pd(a, t);
      const __m256d u = cmul(e, w1k);
      const __m256d s2 = _mm256_add_pd(c, u);
      const __m256d s3 = _mm256_sub_pd(c, u);
      const __m256d v0 = cmul(s2, w2k);
      const __m256d v1 = cmul(s3, w2kh);
      store2(data + i + k, _mm256_add_pd(s0, v0));
      store2(data + i + k + 2 * h, _mm256_sub_pd(s0, v0));
      store2(data + i + k + h, _mm256_add_pd(s1, v1));
      store2(data + i + k + 3 * h, _mm256_sub_pd(s1, v1));
    }
  }
}

void fft_len2_pass_avx2(Cx* data, std::size_t n) {
  const __m256d w = _mm256_setr_pd(1.0, 0.0, 1.0, 0.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d r0 = load2(data + i);
    const __m256d r1 = load2(data + i + 2);
    const __m256d us = _mm256_permute2f128_pd(r0, r1, 0x20);  // [d0, d2]
    const __m256d vs = _mm256_permute2f128_pd(r0, r1, 0x31);  // [d1, d3]
    const __m256d t = cmul(vs, w);
    const __m256d s = _mm256_add_pd(us, t);   // [o0, o2]
    const __m256d dd = _mm256_sub_pd(us, t);  // [o1, o3]
    store2(data + i, _mm256_permute2f128_pd(s, dd, 0x20));
    store2(data + i + 2, _mm256_permute2f128_pd(s, dd, 0x31));
  }
  for (; i < n; i += 2) {
    const Cx wc{1.0, 0.0};
    const Cx a = data[i];
    const Cx v = data[i + 1] * wc;
    data[i] = a + v;
    data[i + 1] = a - v;
  }
}

void fft_scale_avx2(Cx* data, std::size_t n, double scale) {
  const __m256d s = _mm256_set1_pd(scale);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    store2(data + i, _mm256_mul_pd(load2(data + i), s));
  }
  for (; i < n; ++i) data[i] *= scale;
}

}  // namespace

const Kernels* avx2_kernels() {
  static constexpr Kernels kAvx2{acs_run_avx2, demap_block_avx2,
                                 fft_radix4_pass_avx2, fft_len2_pass_avx2,
                                 fft_scale_avx2};
  static const bool supported = __builtin_cpu_supports("avx2") != 0;
  return supported ? &kAvx2 : nullptr;
}

#else  // !defined(__AVX2__)

const Kernels* avx2_kernels() { return nullptr; }

#endif  // defined(__AVX2__)

}  // namespace witag::phy::simd::kernels
