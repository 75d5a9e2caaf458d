#include "phy/channel_est.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <complex>
#include <cstddef>

#include "obs/obs.hpp"
#include "phy/preamble.hpp"
#include "util/require.hpp"

namespace witag::phy {
namespace {

using util::Cx;

// Floor on |h|^2 to keep equalization of a faded bin from producing
// non-finite values; such bins get an enormous noise variance instead.
constexpr double kMinGain = 1e-18;
constexpr double kDeadNoise = 1e18;

// Common phase error from the four pilots: correlate received pilots
// against their expected post-channel values; the angle of the sum is
// the shared rotation. Four complex MACs per symbol — not worth a
// kernel, and shared verbatim by the kernel path and the reference.
Cx estimate_cpe(const FreqSymbol& rx, const ChannelEstimate& est,
                std::size_t symbol_index) {
  const auto pilots_rx = extract_pilots(rx);
  const auto pilots_tx = pilot_values(symbol_index);
  const auto pilot_sc = pilot_subcarriers();
  Cx acc{};
  for (std::size_t i = 0; i < kNumPilots; ++i) {
    const Cx expected = est.h[bin_index(pilot_sc[i])] * pilots_tx[i];
    acc += pilots_rx[i] * std::conj(expected);
  }
  if (std::abs(acc) > 0.0) return acc / std::abs(acc);
  return Cx{1.0, 0.0};
}

// FFT-bin index of each data subcarrier, in demap order. Built once;
// equalize_into gathers through this table every symbol.
const std::array<unsigned, kFftSize>& data_bin_table() {
  static const std::array<unsigned, kFftSize> table = [] {
    std::array<unsigned, kFftSize> t{};
    const auto sc = data_subcarriers();
    WITAG_REQUIRE(sc.size() <= kFftSize);
    for (std::size_t i = 0; i < sc.size(); ++i) {
      t[i] = bin_index(sc[i]);
    }
    return t;
  }();
  return table;
}

}  // namespace

ChannelEstimate estimate_channel(std::span<const FreqSymbol> ltf_rx) {
  WITAG_SPAN_CAT("phy.channel_est", "phy");
  WITAG_COUNT("phy.channel_est.calls", 1);
  WITAG_REQUIRE(!ltf_rx.empty());
  const FreqSymbol& ref = ltf_symbol();

  ChannelEstimate est;
  std::size_t used = 0;
  for (unsigned bin = 0; bin < kFftSize; ++bin) {
    if (ref[bin] == Cx{}) continue;
    Cx sum{};
    for (const FreqSymbol& rx : ltf_rx) sum += rx[bin] / ref[bin];
    est.h[bin] = sum / static_cast<double>(ltf_rx.size());
    est.mean_gain += std::norm(est.h[bin]);
    ++used;
  }
  est.mean_gain /= static_cast<double>(used);

  if (ltf_rx.size() >= 2) {
    // Successive LTFs carry the same signal; their difference is noise.
    double acc = 0.0;
    std::size_t n = 0;
    for (unsigned bin = 0; bin < kFftSize; ++bin) {
      if (ref[bin] == Cx{}) continue;
      for (std::size_t r = 1; r < ltf_rx.size(); ++r) {
        acc += std::norm(ltf_rx[r][bin] - ltf_rx[r - 1][bin]) / 2.0;
        ++n;
      }
    }
    est.noise_var = acc / static_cast<double>(n);
  }
  // Guard against a zero estimate (noise-free unit tests): the demapper
  // requires a strictly positive variance.
  if (!(est.noise_var > 0.0)) est.noise_var = 1e-12;
  return est;
}

EqualizedSymbol equalize(const FreqSymbol& rx, const ChannelEstimate& est,
                         std::size_t symbol_index, bool cpe_correction) {
  EqualizedSymbol out;
  equalize_into(rx, est, symbol_index, cpe_correction, out);
  return out;
}

void equalize_into(const FreqSymbol& rx, const ChannelEstimate& est,
                   std::size_t symbol_index, bool cpe_correction,
                   EqualizedSymbol& out) {
  WITAG_SPAN_CAT("phy.equalize", "phy");
  WITAG_COUNT("phy.equalize.calls", 1);
  const Cx cpe = cpe_correction ? estimate_cpe(rx, est, symbol_index)
                                : Cx{1.0, 0.0};

  const auto data_sc = data_subcarriers();
  const std::size_t n = data_sc.size();
  out.points.resize(n);
  out.noise_vars.resize(n);

  // The separable formula documented in channel_est.hpp, straight from
  // the bins into the (capacity-reused) outputs: no allocation on the
  // per-symbol hot path. Dead bins skip the divide.
  const auto& bins = data_bin_table();
  const double cr = cpe.real();
  const double ci = cpe.imag();
  const double noise_floor = std::max(est.noise_var, 1e-12);
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned bin = bins[i];
    const double hr = est.h[bin].real();
    const double hi = est.h[bin].imag();
    const double rr = rx[bin].real();
    const double ri = rx[bin].imag();
    const double g = hr * hr + hi * hi;
    if (g < kMinGain) {
      out.points[i] = Cx{};
      out.noise_vars[i] = kDeadNoise;
      continue;
    }
    const double yr = rr * cr + ri * ci;
    const double yi = ri * cr - rr * ci;
    out.points[i] = Cx{(yr * hr + yi * hi) / g, (yi * hr - yr * hi) / g};
    out.noise_vars[i] = noise_floor / g;
  }
}

namespace detail {

EqualizedSymbol equalize_reference(const FreqSymbol& rx,
                                   const ChannelEstimate& est,
                                   std::size_t symbol_index,
                                   bool cpe_correction) {
  EqualizedSymbol out;
  const Cx cpe = cpe_correction ? estimate_cpe(rx, est, symbol_index)
                                : Cx{1.0, 0.0};
  const auto data_sc = data_subcarriers();
  out.points.resize(data_sc.size());
  out.noise_vars.resize(data_sc.size());
  for (std::size_t i = 0; i < data_sc.size(); ++i) {
    const unsigned bin = bin_index(data_sc[i]);
    const double gain = std::norm(est.h[bin]);
    if (gain < kMinGain) {
      // A dead bin carries no information: neutral point, huge noise.
      out.points[i] = Cx{};
      out.noise_vars[i] = kDeadNoise;
      continue;
    }
    out.points[i] = rx[bin] * std::conj(cpe) / est.h[bin];
    out.noise_vars[i] = std::max(est.noise_var, 1e-12) / gain;
  }
  return out;
}

}  // namespace detail

}  // namespace witag::phy
