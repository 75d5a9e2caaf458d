// Runtime SIMD tiers and the one kernel table the PHY hot path
// dispatches through: Viterbi add-compare-select and soft demap. Two
// tiers, scalar and AVX2. Equalize, deinterleave and the 64-point FFT
// stay plain scalar loops (channel_est.cpp, interleaver.cpp, fft.cpp):
// forcing their AVX2 kernels to scalar cost nothing measurable end to
// end, while scalar demap cost fig5 17% of its rounds/s (DESIGN.md §14).
//
// Every kernel here is bit-identical to its scalar counterpart by
// construction: the build carries no -march/-ffast-math, so scalar code
// never contracts into FMA, and the vector kernels use only packed
// mul/add/sub/xor/min/compare — the same IEEE-754 operations on the same
// operands in the same association, just several lanes at a time.
// Negation is a sign-bit XOR (exact), selection is a bitwise blend
// (exact), and reductions only reorder operations across independent
// outputs, never within one. tests/test_simd.cpp fuzzes both tiers
// against the detail::*_reference implementations.
//
// Dispatch is resolved once per call site from `active_tier()`:
// hardware detection (AVX2 via cpuid) clamped by what the build
// supports, with the WITAG_SIMD environment variable as the one off
// switch ("off"/"scalar"/"0" force scalar, anything else means the
// best tier) — CI's simd-dispatch job forces scalar and byte-compares
// bench stdout.
//
// Raw intrinsics live only in src/phy/simd_avx2.cpp; tools/witag_lint
// enforces this (rule `simd-intrinsic`).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace witag::phy::simd {

/// Capability tiers, ordered: a higher tier implies the lower one.
enum class Tier : std::uint8_t { kScalar = 0, kAvx2 = 1 };

/// Best tier the hardware and build support (ignores WITAG_SIMD).
Tier detect_best_tier();

/// The tier kernels dispatch on: detect_best_tier() unless the
/// WITAG_SIMD environment variable (read once per process) forces
/// scalar, then any ScopedTier override. Never exceeds
/// detect_best_tier().
Tier active_tier();

/// Lower-case tier name ("scalar", "avx2") for logs and benches.
const char* tier_name(Tier t);

/// RAII tier override for tests and benches: clamps to the detected
/// best tier, restores the previous override on destruction. Not
/// thread-safe — use from single-threaded test/bench setup only.
class ScopedTier {
 public:
  explicit ScopedTier(Tier t);
  ~ScopedTier();
  ScopedTier(const ScopedTier&) = delete;
  ScopedTier& operator=(const ScopedTier&) = delete;

 private:
  int previous_;
};

// ---------------------------------------------------------------------
// Viterbi add-compare-select.
// ---------------------------------------------------------------------

/// The whole forward pass over `n_steps` trellis steps: step t reads
/// the LLR pair llrs[2t], llrs[2t + 1]. `metrics` holds the 64 path
/// metrics (32-byte aligned); it carries the start metrics in and the
/// end metrics out. dec[t] is step t's decision word: bit ns is set
/// when next state ns took its odd predecessor (strict m1 > m0), so the
/// survivor of ns is ((ns << 1) & 63) | bit and its input bit ns >> 5.
using AcsRunFn = void (*)(const double* llrs, std::size_t n_steps,
                          double* metrics, std::uint64_t* dec);

// ---------------------------------------------------------------------
// Soft demap (separable Gray-QAM, SoA inputs).
// ---------------------------------------------------------------------

/// Per-axis view of a Gray-mapped constellation: the low `i_bits` of a
/// point index select the I (real) level, the remaining `q_bits` select
/// Q. BPSK has q_bits == 0 with the single Q "level" 0.0. Squared
/// distances are separable (d = dI² + dQ²), which is what lets the
/// kernels do per-axis minima instead of the reference's full table
/// scan per bit — see constellation.cpp for the bit-exactness argument.
struct DemapAxes {
  unsigned n_bits = 0;  ///< bits per point (i_bits + q_bits)
  unsigned i_bits = 0;
  unsigned q_bits = 0;
  std::array<double, 8> i_levels{};
  std::array<double, 8> q_levels{};
};

/// Demaps `count` equalized points given as parallel arrays (re/im and
/// per-point noise variance) into max-log LLRs: out[p * n_bits + b].
/// All noise variances must be > 0 (checked by the callers).
using DemapBlockFn = void (*)(const double* re, const double* im,
                              const double* nv, std::size_t count,
                              const DemapAxes& ax, double* out);

// ---------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------

/// One tier's kernels; every entry is non-null.
struct Kernels {
  AcsRunFn acs_run;
  DemapBlockFn demap_block;
};

/// The kernel table for a tier. A tier the hardware or build cannot run
/// gets the scalar table.
const Kernels& kernels_for(Tier t);

}  // namespace witag::phy::simd
