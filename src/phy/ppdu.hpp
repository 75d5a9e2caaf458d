// PPDU assembly and reception: the full 802.11n-style BCC chain
// (scramble -> convolutional encode -> puncture -> interleave -> map ->
// OFDM) on the transmit side, and its inverse with least-squares channel
// estimation, per-subcarrier equalization, soft demapping and Viterbi
// decoding on the receive side.
//
// `transmit` runs the chain as one streaming pass per field with no
// intermediate bit vectors: each scrambled byte's bits step the encoder
// LUT, the kept coded bits land straight in their constellation point's
// index via a per-modulation (point, bit) table, and each full symbol
// is mapped and assembled into the PPDU (DESIGN.md §12.5). The
// stage-by-stage chain lives on in tests/test_ppdu.cpp as the
// specification it is checked against.
//
// The PPDU is exposed as a timeline of frequency-domain OFDM symbols so
// the channel simulator can apply a (possibly time-varying) channel per
// symbol — which is exactly the granularity at which a WiTAG tag operates.
// The receiver starts from that aligned timeline: the only time-domain
// step is the tag's envelope render (ofdm.hpp's to_time).
#pragma once

#include <cstdint>
#include <span>
#include <vector>
#include <cstddef>

#include "phy/channel_est.hpp"
#include "phy/mcs.hpp"
#include "phy/ofdm.hpp"
#include "phy/plcp.hpp"
#include "util/bits.hpp"
#include "util/complexvec.hpp"

namespace witag::phy {

/// Role of each symbol slot in the PPDU timeline. The layout is fixed:
/// slot 0 = STF, slots 1..2 = LTF, slots 3..4 = SIG, remainder = data.
enum class SlotKind : std::uint8_t { kStf, kLtf, kSig, kData };

inline constexpr std::size_t kStfSlots = 1;
inline constexpr std::size_t kLtfSlots = 2;
inline constexpr std::size_t kPreambleSlots = kStfSlots + kLtfSlots;
inline constexpr std::size_t kHeaderSlots = kPreambleSlots + kSigSymbols;

/// Transmit-side PPDU: the symbol timeline plus metadata.
struct TxPpdu {
  HtSig sig;
  std::vector<FreqSymbol> symbols;  ///< STF, LTF x2, SIG x2, data...
  std::size_t n_data_symbols = 0;

  std::size_t size() const { return symbols.size(); }
  /// On-air duration [us] at 4 us per symbol slot.
  double duration_us() const;
  /// Slot kind for a timeline index.
  SlotKind kind(std::size_t slot) const;
};

/// Transmitter options.
struct TxConfig {
  unsigned mcs_index = 0;
  std::uint8_t scrambler_seed = 0x5D;
};

/// Builds the PPDU carrying `psdu`. Requires a non-empty PSDU smaller
/// than 65536 bytes and a valid MCS.
TxPpdu transmit(std::span<const std::uint8_t> psdu, const TxConfig& cfg);

/// Receiver options.
struct RxConfig {
  bool cpe_correction = true;  ///< Pilot-based common-phase tracking.
};

/// Receive outcome. When `sig_ok` is false the PPDU is undecodable and
/// `psdu` is empty: either the header is unusable (failed CRC, invalid
/// MCS or zero length; `sig` stays default), or the capture is shorter
/// than the header says (`sig` holds the decoded header). Otherwise `psdu` holds the decoded bytes, which
/// may still contain bit errors — per-MPDU FCS checking is the MAC
/// layer's job.
struct RxResult {
  bool sig_ok = false;
  HtSig sig;
  util::ByteVec psdu;
  ChannelEstimate estimate;
};

/// Decodes a received symbol timeline (same layout as TxPpdu::symbols).
/// Requires at least the header slots. One-shot wrapper over a fresh
/// phy::BatchDecoder (phy/batch.hpp); hot paths keep a decoder instead.
RxResult receive(std::span<const FreqSymbol> symbols, const RxConfig& cfg);

}  // namespace witag::phy
