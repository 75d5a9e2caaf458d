// Channel estimation and equalization.
//
// The receiver forms one least-squares channel estimate from the PPDU's
// LTF symbols and equalizes every subsequent data symbol with it. This is
// the 802.11 behaviour WiTAG exploits: if the channel changes mid-PPDU
// (because the tag toggles its reflector), the stale estimate corrupts
// the affected subframes. Pilot-based common-phase-error correction is
// implemented too — it removes a shared rotation but cannot repair the
// per-subcarrier error the tag induces.
#pragma once

#include <span>
#include <vector>
#include <cstddef>

#include "phy/ofdm.hpp"
#include "util/complexvec.hpp"

namespace witag::phy {

/// A per-subcarrier channel estimate plus the estimated noise level.
struct ChannelEstimate {
  FreqSymbol h{};          ///< Per-bin estimate; zero in unused bins.
  double noise_var = 0.0;  ///< Complex noise variance per subcarrier.
  double mean_gain = 0.0;  ///< Mean |h|^2 over used subcarriers.
};

/// Least-squares estimate from received LTF symbols (averaged). The noise
/// variance is estimated from the difference between LTF repetitions when
/// two or more are available. Requires at least one symbol.
ChannelEstimate estimate_channel(std::span<const FreqSymbol> ltf_rx);

/// Result of equalizing one data symbol.
struct EqualizedSymbol {
  util::CxVec points;              ///< 52 equalized data points.
  std::vector<double> noise_vars;  ///< Post-equalization noise per point.
};

/// Equalizes a received data symbol: divides by the channel estimate,
/// optionally removes common phase error using the pilots, and reports
/// the per-subcarrier post-equalization noise variance (noise_var/|h|^2)
/// the soft demapper needs.
EqualizedSymbol equalize(const FreqSymbol& rx, const ChannelEstimate& est,
                         std::size_t symbol_index, bool cpe_correction = true);

/// Allocation-reusing variant: writes into `out` (vectors resized;
/// capacity reused). The hot decode path keeps one EqualizedSymbol in
/// its phy::BatchDecoder so per-symbol buffers persist.
///
/// Points are computed as y * conj(h) / |h|^2 in separable real
/// arithmetic instead of the reference's std::complex division (libgcc's
/// scaled Smith algorithm). Per data bin, with h = (hr, hi), rx = (rr, ri),
/// the common-phase-error rotation (cr, ci) and the noise floor
/// max(noise_var, 1e-12), in exactly this association:
///   g  = hr*hr + hi*hi
///   yr = rr*cr + ri*ci          (rx * conj(cpe))
///   yi = ri*cr - rr*ci
///   zr = (yr*hr + yi*hi) / g    (y * conj(h) / |h|^2)
///   zi = (yi*hr - yr*hi) / g
///   nv = noise_floor / g
/// with g < 1e-18 (a dead bin) giving the neutral point 0 and nv 1e18.
/// tests/test_simd.cpp pins this arithmetic bit for bit, and checks it
/// against detail::equalize_reference to ~1 ULP on finite channels.
void equalize_into(const FreqSymbol& rx, const ChannelEstimate& est,
                   std::size_t symbol_index, bool cpe_correction,
                   EqualizedSymbol& out);

namespace detail {

/// The original equalizer loop (std::complex operator/ per subcarrier),
/// kept as the numerical reference the kernel formulation is fuzzed
/// against. Not used by the decode path.
EqualizedSymbol equalize_reference(const FreqSymbol& rx,
                                   const ChannelEstimate& est,
                                   std::size_t symbol_index,
                                   bool cpe_correction);

}  // namespace detail

}  // namespace witag::phy
