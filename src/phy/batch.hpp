// The PPDU decoder: the one receive pipeline, shared by Session's
// exchange path and the one-shot phy::receive() wrappers.
//
// An exchange decodes its query A-MPDU as a single PPDU against a
// single channel estimate taken from the LTFs — the estimate going
// stale mid-frame is what carries the tag's bits — so there are never
// independent PPDUs in one exchange to decode side by side. The decoder
// therefore runs one PPDU per call: SIG and DATA go through the same
// field decode (per symbol: equalize → soft demap → deinterleave; then
// depuncture → Viterbi), and the DATA bits are descrambled into a
// reused RxResult.
//
// Every buffer is owned here and grows to the largest PPDU seen, so
// steady-state decode performs zero heap allocations (asserted via the
// `phy.batch.scratch_reuses` counter, mirroring ViterbiWorkspace). Not
// thread-safe: use one decoder per thread (each Session owns one).
#pragma once

#include <span>
#include <vector>
#include <cstddef>

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
  /// Decodes one field against `result_.estimate` — equalize,
  /// soft-demap and deinterleave each symbol, then depuncture and
  /// Viterbi-decode into `bits_`.
  /// `n_info_bits` truncates the decode (0 = everything; the data
  /// field stops at the tail where the trellis terminates).
  void decode_field(std::span<const FreqSymbol> symbols, Modulation mod,
                    CodeRate rate, std::size_t first_symbol_index,
                    bool cpe_correction, std::size_t n_info_bits);

  ViterbiWorkspace viterbi_;
  EqualizedSymbol eq_;            ///< Per-symbol equalizer output.
  std::vector<double> sym_llrs_;  ///< Per-symbol soft demap output.
  std::vector<double> deint_;     ///< Per-symbol deinterleaved LLRs.
  std::vector<double> llrs_;      ///< Concatenated field LLRs.
  std::vector<double> mother_;    ///< Depunctured mother-rate LLRs.
  util::BitVec bits_;             ///< Viterbi output bits.
  util::BitVec plain_;            ///< Descrambled field bits.
  RxResult result_;
};

}  // namespace witag::phy
