// OFDM symbol layout for the HT 20 MHz PHY: 64-point FFT grid with 56
// used subcarriers (52 data + 4 pilots at +/-7 and +/-21), 16-sample
// cyclic prefix at 20 Msps (4 us symbols). Provides the mapping between
// constellation points and frequency-domain symbols, and the one step
// into the time domain: to_time, which renders a symbol's 80-sample
// block for the tag's envelope detector.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>
#include <cstddef>

#include "util/complexvec.hpp"

namespace witag::phy {

inline constexpr unsigned kFftSize = 64;
inline constexpr unsigned kCpLen = 16;
inline constexpr unsigned kSamplesPerSymbol = kFftSize + kCpLen;
inline constexpr unsigned kNumPilots = 4;
inline constexpr double kSampleRateHz = 20e6;

/// One OFDM symbol in the frequency domain, indexed by FFT bin
/// (bin 0 = DC, bins 1..31 = positive subcarriers, 33..63 = negative).
using FreqSymbol = std::array<util::Cx, kFftSize>;

/// FFT bin for logical subcarrier k in [-32, 31].
unsigned bin_index(int subcarrier);

/// The 52 data subcarrier indices in logical order (-28..28, skipping
/// DC and the pilots).
std::span<const int> data_subcarriers();

/// Pilot subcarriers {-21, -7, 7, 21}.
std::span<const int> pilot_subcarriers();

/// Expected pilot values for data symbol `symbol_index` (0-based within
/// the data field): base pattern {1, 1, 1, -1} times the polarity
/// sequence p_{symbol_index+1} (p_0 belongs to the SIG field).
std::array<util::Cx, kNumPilots> pilot_values(std::size_t symbol_index);

/// Builds a frequency-domain data symbol from 52 constellation points
/// plus pilots; unused bins are zero. Requires points.size() == 52.
FreqSymbol assemble_data_symbol(std::span<const util::Cx> points,
                                std::size_t symbol_index);

/// Extracts the 52 data-subcarrier values from a received symbol.
util::CxVec extract_data(const FreqSymbol& symbol);

/// Extracts the 4 pilot values from a received symbol.
std::array<util::Cx, kNumPilots> extract_pilots(const FreqSymbol& symbol);

/// Frequency-domain symbol -> 80 time-domain samples (unitary IFFT with
/// cyclic prefix prepended).
util::CxVec to_time(const FreqSymbol& symbol);

}  // namespace witag::phy
