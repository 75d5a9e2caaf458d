// The PPDU decoder: the one receive pipeline, shared by Session's
// exchange path and the one-shot phy::receive() wrappers.
//
// An exchange decodes its query A-MPDU as a single PPDU against a
// single channel estimate taken from the LTFs — the estimate going
// stale mid-frame is what carries the tag's bits — so there are never
// independent PPDUs in one exchange to decode side by side. The decoder
// therefore runs one PPDU per call: SIG and DATA go through the same
// field decode (per symbol: equalize → soft demap → scatter each LLR to
// its mother-rate slot, which deinterleaves and depunctures in one
// step; then Viterbi), and the DATA bits are descrambled into a reused
// RxResult.
//
// Every buffer is owned here and grows to the largest PPDU seen, so
// steady-state decode performs zero heap allocations (asserted via the
// `phy.batch.scratch_reuses` counter, mirroring ViterbiWorkspace). Not
// thread-safe: use one decoder per thread (each Session owns one).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "phy/channel_est.hpp"
#include "phy/mcs.hpp"
#include "phy/ofdm.hpp"
#include "phy/ppdu.hpp"
#include "phy/viterbi.hpp"
#include "util/bits.hpp"

namespace witag::phy {

class BatchDecoder {
 public:
  /// Decodes one received symbol timeline (same layout as
  /// TxPpdu::symbols). Requires at least the header slots. The result
  /// is valid until the next call.
  const RxResult& decode_one(std::span<const FreqSymbol> symbols,
                             const RxConfig& cfg);

  /// Heap bytes currently reserved across the decode buffers (exported
  /// as `phy.batch.scratch_bytes`).
  std::size_t capacity_bytes() const;

 private:
  /// Decodes one field against `result_.estimate` — equalize and
  /// soft-demap each symbol and scatter its LLRs into `mother_`, then
  /// Viterbi-decode into `bits_`.
  /// `n_info_bits` truncates the decode (0 = everything; the data
  /// field stops at the tail where the trellis terminates).
  void decode_field(std::span<const FreqSymbol> symbols, Modulation mod,
                    CodeRate rate, std::size_t first_symbol_index,
                    bool cpe_correction, std::size_t n_info_bits);

  ViterbiWorkspace viterbi_;
  EqualizedSymbol eq_;            ///< Per-symbol equalizer output.
  std::vector<double> sym_llrs_;  ///< Per-symbol soft demap output.
  std::vector<double> mother_;    ///< Field LLRs at mother rate.
  util::BitVec bits_;             ///< Viterbi output bits.
  util::BitVec plain_;            ///< Descrambled field bits.
  RxResult result_;
};

namespace detail {

/// Deinterleave → depuncture as one scatter, for a (modulation, rate)
/// pair of the MCS table (SIG is MCS 0's BPSK 1/2). Every such pair's
/// n_cbps is a whole number of puncture periods' kept bits, so each
/// OFDM symbol fills exactly `mother_per_symbol` mother-rate slots with
/// the puncture pattern starting afresh: symbol s's demapped LLR p
/// belongs at mother index s * mother_per_symbol + to[p], and the
/// slots no LLR reaches are the punctured ones.
struct LlrScatter {
  unsigned n_cbps = 0;             ///< LLRs per symbol.
  unsigned mother_per_symbol = 0;  ///< Mother-rate slots per symbol.
  std::array<std::uint16_t, kMaxCodedBitsPerSymbol> to{};

  /// Writes symbol `s`'s LLRs (n_cbps, in demap order) into their slots
  /// of `mother`. Requires mother.size() >= (s + 1) * mother_per_symbol.
  void scatter(std::span<const double> sym_llrs, std::size_t s,
               std::span<double> mother) const;
};

/// The process-wide scatter table for a pair. Requires a pair that
/// some MCS uses.
const LlrScatter& llr_scatter(Modulation mod, CodeRate rate);

}  // namespace detail

}  // namespace witag::phy
