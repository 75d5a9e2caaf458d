// Soft-decision Viterbi decoder for the 802.11 rate-1/2 mother code
// (K = 7, generators 133/171 octal). Consumes LLRs in the demapper's
// convention (positive = bit 0 more likely) including the zero-LLR
// erasures inserted by depuncturing, and assumes the encoder both starts
// and ends in the all-zero state (6 zero tail bits).
//
// Two implementations, bit-identical by construction (and fuzz-tested in
// tests/test_viterbi_equiv.cpp):
//  * detail::viterbi_reference — the transition-oriented original, kept
//    as the readable specification and benchmark baseline.
//  * viterbi_decode — predecessor-oriented butterflies over a flattened
//    constexpr trellis with a large-finite sentinel metric (branchless
//    add-compare-select), run as one SIMD kernel call per trellis, and
//    one packed 64-bit decision word per step in a reusable
//    ViterbiWorkspace, so steady-state decode performs zero heap
//    allocations. See DESIGN.md §12 for the correctness argument.
#pragma once

#include <cstdint>
#include <span>
#include <vector>
#include <cstddef>

#include "util/bits.hpp"

namespace witag::phy {

/// Reusable buffers for viterbi_decode. One workspace serves any number
/// of sequential decodes; capacity grows to the largest decode seen and
/// is then reused (counted by the `phy.viterbi.workspace_reuses`
/// metric, which is how tests assert zero steady-state allocations).
/// Not thread-safe: use one workspace per thread.
class ViterbiWorkspace {
 public:
  /// Heap bytes currently reserved by the workspace (8 per step).
  std::size_t capacity_bytes() const {
    return decisions_.capacity() * sizeof(std::uint64_t);
  }

 private:
  friend void viterbi_decode(std::span<const double> llrs,
                             ViterbiWorkspace& ws, util::BitVec& out);
  // decisions_[step] bit ns: next state ns took its odd predecessor.
  std::vector<std::uint64_t> decisions_;
};

/// Largest |LLR| viterbi_decode accepts. Its -1e300 sentinel metric
/// acts like the reference's -inf only while every real path metric
/// stays far from it; at 1e250 per LLR a trellis would need ~1e39 steps
/// to close that margin (DESIGN.md §12.1). The demapper's LLRs are
/// many orders of magnitude smaller.
inline constexpr double kMaxLlr = 1e250;

/// Decodes `llrs` (two per information bit at the mother rate) into
/// `out` (resized to the information bit count, including the tail),
/// reusing `ws` and `out` capacity. Requires an even, non-zero LLR
/// count and std::abs(llr) <= kMaxLlr for every LLR (so no NaN);
/// throws std::invalid_argument otherwise. Steady state (same or
/// smaller size as a previous call on the same buffers) performs no
/// heap allocation.
void viterbi_decode(std::span<const double> llrs, ViterbiWorkspace& ws,
                    util::BitVec& out);

/// Convenience wrapper returning the decoded bits. Uses a thread-local
/// workspace, so repeated calls still avoid steady-state allocations of
/// the decision storage (the returned vector is the only allocation).
util::BitVec viterbi_decode(std::span<const double> llrs);

namespace detail {

/// The original transition-oriented decoder (-inf pruning, per-call
/// allocations). Retained as the specification the optimized path is
/// verified against, mirroring fft_reference_inplace.
util::BitVec viterbi_reference(std::span<const double> llrs);

}  // namespace detail

}  // namespace witag::phy
