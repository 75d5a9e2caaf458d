// Shared constexpr trellis tables for the K = 7 Viterbi decoder
// (generators 133/171 octal). Factored out of viterbi.cpp so the SIMD
// add-compare-select kernels in src/phy/simd*.cpp walk the exact same
// flattened trellis as the scalar decoder and the transition-oriented
// reference — bit-identical outputs fall out of sharing one table.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "phy/convolutional.hpp"

namespace witag::phy::detail {

// Transition model (matches convolutional_encode): from state s (the top
// six register bits) with input u, the full 7-bit register becomes
// f = s | (u << 6); the branch outputs are the parities of f with each
// generator and the next state is f >> 1.
struct Transitions {
  // For [state][input]: next state and the two expected output bits.
  std::array<std::array<std::uint8_t, 2>, kNumStates> next{};
  std::array<std::array<std::uint8_t, 2>, kNumStates> out_a{};
  std::array<std::array<std::uint8_t, 2>, kNumStates> out_b{};
};

constexpr Transitions make_transitions() {
  Transitions t;
  for (std::uint32_t s = 0; s < kNumStates; ++s) {
    for (std::uint32_t u = 0; u < 2; ++u) {
      const std::uint32_t full = s | (u << 6);
      t.next[s][u] = static_cast<std::uint8_t>(full >> 1);
      t.out_a[s][u] =
          static_cast<std::uint8_t>(std::popcount(full & kGenPolyA) & 1);
      t.out_b[s][u] =
          static_cast<std::uint8_t>(std::popcount(full & kGenPolyB) & 1);
    }
  }
  return t;
}

inline constexpr Transitions kTrellis = make_transitions();

// Predecessor-oriented view of the same trellis: next-state ns is fed by
// exactly the two 7-bit registers f0 = 2*ns and f1 = 2*ns + 1, i.e. by
// predecessor states s0 = f0 & 63 and s1 = s0 + 1, both under the same
// input u = ns >> 5. s0 < s1 always, which is exactly the order the
// transition-oriented reference visits them in — so "prefer the s0
// branch on metric ties" reproduces its strict-> update rule bit for
// bit. One decision bit per next state (0 = s0, 1 = s1) therefore
// names the survivor, and traceback rebuilds the predecessor from it.
struct Butterfly {
  std::uint8_t s0, s1;          // the two predecessor states
  std::uint8_t a0, b0, a1, b1;  // expected coded bits per branch
};

constexpr std::array<Butterfly, kNumStates> make_butterflies() {
  std::array<Butterfly, kNumStates> bs{};
  for (std::uint32_t ns = 0; ns < kNumStates; ++ns) {
    const std::uint32_t f0 = ns << 1;
    const std::uint32_t f1 = f0 | 1u;
    Butterfly& bf = bs[ns];
    bf.s0 = static_cast<std::uint8_t>(f0 & (kNumStates - 1));
    bf.s1 = static_cast<std::uint8_t>(f1 & (kNumStates - 1));
    bf.a0 = static_cast<std::uint8_t>(std::popcount(f0 & kGenPolyA) & 1);
    bf.b0 = static_cast<std::uint8_t>(std::popcount(f0 & kGenPolyB) & 1);
    bf.a1 = static_cast<std::uint8_t>(std::popcount(f1 & kGenPolyA) & 1);
    bf.b1 = static_cast<std::uint8_t>(std::popcount(f1 & kGenPolyB) & 1);
  }
  return bs;
}

inline constexpr std::array<Butterfly, kNumStates> kButterflies =
    make_butterflies();

// Large-finite stand-in for -inf: unreachable states carry this value
// instead of being skipped, which removes the per-state branch from the
// ACS loop. viterbi_decode rejects |LLR| > kMaxLlr (1e250), so adding a
// branch metric to the sentinel does not move it at double granularity
// (ulp at 1e300 is ~1e284), and a sentinel path can never beat a real
// one. Any end metric below kSentinelThreshold therefore means "state 0
// was pruned", exactly like the reference's -inf test.
inline constexpr double kSentinel = -1e300;
inline constexpr double kSentinelThreshold = -1e290;

// Both generators tap the register's first and last bit (f & 1 and
// f & 64), which makes every butterfly symmetric: for ns < 32, next
// states ns and ns + 32 share predecessors s0 = 2ns and s1 = 2ns + 1;
// the s1 branch of ns and the s0 branch of ns + 32 expect the
// complement of ns's s0 branch, and the s1 branch of ns + 32 expects the
// same bits. One pair of expected bits per butterfly therefore drives
// all four branches.
constexpr bool butterflies_symmetric() {
  for (std::uint32_t ns = 0; ns < kNumStates / 2; ++ns) {
    const Butterfly& lo = kButterflies[ns];
    const Butterfly& hi = kButterflies[ns + kNumStates / 2];
    if (lo.a1 != (lo.a0 ^ 1) || lo.b1 != (lo.b0 ^ 1) ||
        hi.a0 != (lo.a0 ^ 1) || hi.b0 != (lo.b0 ^ 1) || hi.a1 != lo.a0 ||
        hi.b1 != lo.b0 || hi.s0 != lo.s0 || hi.s1 != lo.s1) {
      return false;
    }
  }
  return true;
}
static_assert(butterflies_symmetric());

// Sign masks for the vector ACS kernels: a[ns] / b[ns] (ns < 32) is
// -0.0 where ns's s0 branch expects a 1 bit. A branch metric ±llr is
// the LLR with its sign bit XORed, and negation-by-sign-flip is exact
// in IEEE-754, so the vector branch metrics are bit-identical to the
// scalar `expected ? -llr : llr`; the complemented branches flip the
// sign once more.
struct AcsSigns {
  alignas(32) std::array<double, kNumStates / 2> a{};
  alignas(32) std::array<double, kNumStates / 2> b{};
};

constexpr AcsSigns make_acs_signs() {
  AcsSigns m;
  for (std::uint32_t ns = 0; ns < kNumStates / 2; ++ns) {
    m.a[ns] = kButterflies[ns].a0 ? -0.0 : 0.0;
    m.b[ns] = kButterflies[ns].b0 ? -0.0 : 0.0;
  }
  return m;
}

inline constexpr AcsSigns kAcsSigns = make_acs_signs();

// The forward pass every ACS tier shares: `step(cur, nxt, la, lb)`
// runs one trellis step from `cur` into `nxt` and returns its decision
// word. Metrics ping-pong between the caller's `metrics` and a stack
// buffer; after an odd step count the end metrics sit in the stack
// buffer and are copied back. Instantiated once per tier TU (each
// step is its own lambda type), so the step inlines with that TU's
// instruction set.
template <class Step>
inline void run_trellis(const double* llrs, std::size_t n_steps,
                        double* metrics, std::uint64_t* dec, Step step) {
  alignas(32) double other[kNumStates];
  double* cur = metrics;
  double* nxt = other;
  for (std::size_t t = 0; t < n_steps; ++t) {
    dec[t] = step(cur, nxt, llrs[2 * t], llrs[2 * t + 1]);
    double* const done = cur;
    cur = nxt;
    nxt = done;
  }
  if (cur != metrics) std::memcpy(metrics, cur, sizeof other);
}

}  // namespace witag::phy::detail
