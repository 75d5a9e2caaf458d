#include "phy/ofdm.hpp"

#include <algorithm>
#include <cstddef>

#include "obs/obs.hpp"
#include "phy/fft.hpp"
#include "phy/scrambler.hpp"
#include "util/require.hpp"

namespace witag::phy {
namespace {

using util::Cx;

constexpr std::array<int, kNumPilots> kPilots{-21, -7, 7, 21};
constexpr std::array<double, kNumPilots> kPilotBase{1.0, 1.0, 1.0, -1.0};

std::array<int, 52> make_data_subcarriers() {
  std::array<int, 52> out{};
  std::size_t idx = 0;
  for (int k = -28; k <= 28; ++k) {
    if (k == 0) continue;
    if (std::find(kPilots.begin(), kPilots.end(), k) != kPilots.end()) continue;
    out[idx++] = k;
  }
  return out;
}

const std::array<int, 52> kDataSc = make_data_subcarriers();

}  // namespace

unsigned bin_index(int subcarrier) {
  WITAG_REQUIRE(subcarrier >= -32 && subcarrier <= 31);
  return subcarrier >= 0 ? static_cast<unsigned>(subcarrier)
                         : static_cast<unsigned>(subcarrier + 64);
}

std::span<const int> data_subcarriers() { return kDataSc; }

std::span<const int> pilot_subcarriers() { return kPilots; }

std::array<Cx, kNumPilots> pilot_values(std::size_t symbol_index) {
  const auto& polarity = pilot_polarity_sequence();
  const int p = polarity[(symbol_index + 1) % polarity.size()];
  std::array<Cx, kNumPilots> out{};
  for (std::size_t i = 0; i < kNumPilots; ++i) {
    out[i] = Cx{kPilotBase[i] * p, 0.0};
  }
  return out;
}

FreqSymbol assemble_data_symbol(std::span<const Cx> points,
                                std::size_t symbol_index) {
  WITAG_REQUIRE(points.size() == kDataSc.size());
  FreqSymbol symbol{};
  for (std::size_t i = 0; i < kDataSc.size(); ++i) {
    symbol[bin_index(kDataSc[i])] = points[i];
  }
  const auto pilots = pilot_values(symbol_index);
  for (std::size_t i = 0; i < kNumPilots; ++i) {
    symbol[bin_index(kPilots[i])] = pilots[i];
  }
  return symbol;
}

util::CxVec extract_data(const FreqSymbol& symbol) {
  util::CxVec out(kDataSc.size());
  for (std::size_t i = 0; i < kDataSc.size(); ++i) {
    out[i] = symbol[bin_index(kDataSc[i])];
  }
  return out;
}

std::array<Cx, kNumPilots> extract_pilots(const FreqSymbol& symbol) {
  std::array<Cx, kNumPilots> out{};
  for (std::size_t i = 0; i < kNumPilots; ++i) {
    out[i] = symbol[bin_index(kPilots[i])];
  }
  return out;
}

util::CxVec to_time(const FreqSymbol& symbol) {
  WITAG_SPAN_CAT("phy.ofdm.to_time", "phy");
  WITAG_COUNT("phy.ofdm.to_time.calls", 1);
  // IFFT in place in the block's last kFftSize samples, then the cyclic
  // prefix: a copy of the last kCpLen samples, placed first.
  util::CxVec samples(kSamplesPerSymbol);
  const std::span<Cx> body(samples.data() + kCpLen, kFftSize);
  std::copy(symbol.begin(), symbol.end(), body.begin());
  ifft_inplace(body);
  std::copy(samples.end() - kCpLen, samples.end(), samples.begin());
  return samples;
}

}  // namespace witag::phy
