// Tier detection, the WITAG_SIMD off switch, and the scalar kernels that
// are both the fallback tier and the semantics the AVX2 kernels
// reproduce bit for bit. The AVX2 table lives in simd_avx2.cpp; a build
// without AVX2 support (or a non-x86 target) gets none and every
// dispatch lands on the scalar table without any caller noticing.

#include "phy/simd.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <string>

#include "phy/trellis.hpp"
#include "util/require.hpp"

namespace witag::phy::simd {
namespace {

Tier clamp_tier(Tier t) { return std::min(t, detect_best_tier()); }

/// WITAG_SIMD, read once per process: "off"/"scalar"/"0" force the
/// portable path CI's simd-dispatch job byte-compares against; unset or
/// anything else means the best detected tier.
Tier env_tier() {
  static const Tier tier = [] {
    const char* env = std::getenv("WITAG_SIMD");
    if (!env) return detect_best_tier();
    const std::string v(env);
    if (v == "off" || v == "scalar" || v == "0") return Tier::kScalar;
    return detect_best_tier();
  }();
  return tier;
}

/// ScopedTier override: -1 = none, otherwise a Tier value. Relaxed is
/// enough — overrides are set from single-threaded test/bench setup.
std::atomic<int> g_override{-1};

// ---------------------------------------------------------------------
// Scalar kernels (the fallback tier, and the semantics every vector
// kernel must reproduce bit for bit).
// ---------------------------------------------------------------------

void acs_run_scalar(const double* llrs, std::size_t n_steps, double* metrics,
                    std::uint64_t* dec) {
  detail::run_trellis(
      llrs, n_steps, metrics, dec,
      [](const double* cur, double* nxt, double la, double lb) {
        // pa[e] / pb[e] = metric contribution of a branch expecting bit e.
        const double pa[2] = {la, -la};
        const double pb[2] = {lb, -lb};
        std::uint64_t word = 0;
        for (std::uint32_t ns = 0; ns < kNumStates; ++ns) {
          const detail::Butterfly& bf = detail::kButterflies[ns];
          // Same association as the reference: (metric + a) + b.
          const double m0 = (cur[bf.s0] + pa[bf.a0]) + pb[bf.b0];
          const double m1 = (cur[bf.s1] + pa[bf.a1]) + pb[bf.b1];
          const bool take1 = m1 > m0;  // strict: ties keep the s0 branch
          nxt[ns] = take1 ? m1 : m0;
          word |= static_cast<std::uint64_t>(take1) << ns;
        }
        return word;
      });
}

void demap_block_scalar(const double* re, const double* im, const double* nv,
                        std::size_t count, const DemapAxes& ax, double* out) {
  const unsigned ni = 1u << ax.i_bits;
  const unsigned nq = 1u << ax.q_bits;  // q_bits == 0 -> one level (0.0)
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (std::size_t p = 0; p < count; ++p) {
    const double yr = re[p];
    const double yi = im[p];
    const double noise_var = nv[p];
    // Squared per-axis distances: the same subtract and multiply the
    // reference performs inside std::norm(y - table[i]).
    double di2[8];
    double dq2[8];
    for (unsigned j = 0; j < ni; ++j) {
      const double d = yr - ax.i_levels[j];
      di2[j] = d * d;
    }
    for (unsigned q = 0; q < nq; ++q) {
      const double d = yi - ax.q_levels[q];
      dq2[q] = d * d;
    }
    // Per-axis minima, overall and split by each index bit.
    double min_i = kInf, min_q = kInf;
    double min0_i[4], min1_i[4], min0_q[4], min1_q[4];
    for (unsigned b = 0; b < ax.i_bits; ++b) min0_i[b] = min1_i[b] = kInf;
    for (unsigned b = 0; b < ax.q_bits; ++b) min0_q[b] = min1_q[b] = kInf;
    for (unsigned j = 0; j < ni; ++j) {
      min_i = std::min(min_i, di2[j]);
      for (unsigned b = 0; b < ax.i_bits; ++b) {
        if ((j >> b) & 1u) {
          min1_i[b] = std::min(min1_i[b], di2[j]);
        } else {
          min0_i[b] = std::min(min0_i[b], di2[j]);
        }
      }
    }
    for (unsigned q = 0; q < nq; ++q) {
      min_q = std::min(min_q, dq2[q]);
      for (unsigned b = 0; b < ax.q_bits; ++b) {
        if ((q >> b) & 1u) {
          min1_q[b] = std::min(min1_q[b], dq2[q]);
        } else {
          min0_q[b] = std::min(min0_q[b], dq2[q]);
        }
      }
    }
    // Max-log LLRs, same I-part + Q-part addition and final division as
    // the reference's (min1 - min0) / noise_var over full distances.
    double* llr = out + p * ax.n_bits;
    for (unsigned b = 0; b < ax.i_bits; ++b) {
      llr[b] = ((min1_i[b] + min_q) - (min0_i[b] + min_q)) / noise_var;
    }
    for (unsigned b = 0; b < ax.q_bits; ++b) {
      llr[ax.i_bits + b] =
          ((min_i + min1_q[b]) - (min_i + min0_q[b])) / noise_var;
    }
  }
}

constexpr Kernels kScalarKernels{acs_run_scalar, demap_block_scalar};

}  // namespace

// Defined in simd_avx2.cpp: the AVX2 table, or null when the build
// cannot target AVX2 or the CPU lacks it. Declared here (not in the
// public header) so only kernels_for() sees it.
namespace kernels {
const Kernels* avx2_kernels();
}  // namespace kernels

Tier detect_best_tier() {
  static const Tier best =
      kernels::avx2_kernels() != nullptr ? Tier::kAvx2 : Tier::kScalar;
  return best;
}

Tier active_tier() {
  const int override_tier = g_override.load(std::memory_order_relaxed);
  if (override_tier >= 0) return clamp_tier(static_cast<Tier>(override_tier));
  return env_tier();
}

const char* tier_name(Tier t) {
  switch (t) {
    case Tier::kScalar: return "scalar";
    case Tier::kAvx2: return "avx2";
  }
  WITAG_ENSURE(false);
  return "scalar";
}

ScopedTier::ScopedTier(Tier t)
    : previous_(g_override.load(std::memory_order_relaxed)) {
  g_override.store(static_cast<int>(clamp_tier(t)),
                   std::memory_order_relaxed);
}

ScopedTier::~ScopedTier() {
  g_override.store(previous_, std::memory_order_relaxed);
}

const Kernels& kernels_for(Tier t) {
  static const Kernels* const avx2 = kernels::avx2_kernels();
  if (t == Tier::kAvx2 && avx2 != nullptr) return *avx2;
  return kScalarKernels;
}

}  // namespace witag::phy::simd
