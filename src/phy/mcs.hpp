// 802.11n HT MCS table (20 MHz, single spatial stream, 800 ns GI) plus
// the derived per-symbol bit counts the BCC encoding chain needs.
#pragma once

#include <cstddef>
#include <string_view>

namespace witag::phy {

/// Modulation orders used by 802.11a/g/n.
enum class Modulation { kBpsk, kQpsk, kQam16, kQam64 };

/// Convolutional code rates used by 802.11 BCC.
enum class CodeRate { kHalf, kTwoThirds, kThreeQuarters, kFiveSixths };

/// Bits per subcarrier for a modulation.
unsigned bits_per_symbol(Modulation mod);

/// Code rate as numerator/denominator.
struct RateFraction {
  unsigned num;
  unsigned den;
};
RateFraction rate_fraction(CodeRate rate);

/// One row of the HT MCS table.
struct McsParams {
  unsigned index;        ///< MCS index (0-7 single stream).
  Modulation modulation;
  CodeRate rate;
  unsigned n_bpsc;       ///< Coded bits per subcarrier.
  unsigned n_cbps;       ///< Coded bits per OFDM symbol (52 data carriers).
  unsigned n_dbps;       ///< Data bits per OFDM symbol.
  double data_rate_mbps; ///< PHY data rate at 4 us symbols.
  std::string_view name; ///< e.g. "MCS4 (16-QAM 3/4)".
};

/// Number of single-stream HT MCS entries (0..7).
inline constexpr unsigned kNumMcs = 8;

/// Number of data subcarriers in an HT 20 MHz symbol.
inline constexpr unsigned kDataSubcarriers = 52;

/// Largest n_cbps of any MCS (64-QAM: 6 coded bits per subcarrier).
inline constexpr unsigned kMaxCodedBitsPerSymbol = kDataSubcarriers * 6;

/// OFDM symbol duration with 800 ns guard interval [us].
inline constexpr double kSymbolDurationUs = 4.0;

/// Looks up MCS parameters. Requires index < kNumMcs.
const McsParams& mcs(unsigned index);

/// Number of OFDM symbols needed to carry `psdu_bytes` of payload:
/// ceil((16 service + 8*bytes + 6 tail) / n_dbps).
std::size_t data_symbols_for(std::size_t psdu_bytes, const McsParams& m);

}  // namespace witag::phy
