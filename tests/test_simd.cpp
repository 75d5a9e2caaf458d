// Tier-parity tests for the SIMD dispatch layer (phy/simd.hpp): both
// kernel tiers the hardware can run — scalar and AVX2 — must produce
// bit-identical output to the detail::*_reference implementations, over
// fuzz regimes that include the degenerate cases (Viterbi ties, demap
// dead bins, erasures) where "almost equal" kernels diverge first. The
// scalar-only equalizer is pinned to its documented formula here too.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <complex>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "phy/channel_est.hpp"
#include "phy/constellation.hpp"
#include "phy/convolutional.hpp"
#include "phy/mcs.hpp"
#include "phy/ofdm.hpp"
#include "phy/preamble.hpp"
#include "phy/simd.hpp"
#include "phy/viterbi.hpp"
#include "util/bits.hpp"
#include "util/complexvec.hpp"
#include "util/rng.hpp"

namespace witag {
namespace {

using util::BitVec;
using Tier = phy::simd::Tier;

/// Every tier this machine can actually execute, in ascending order.
std::vector<Tier> runnable_tiers() {
  std::vector<Tier> tiers{Tier::kScalar};
  const Tier best = phy::simd::detect_best_tier();
  if (best >= Tier::kAvx2) tiers.push_back(Tier::kAvx2);
  return tiers;
}

TEST(SimdDispatch, ActiveTierNeverExceedsDetected) {
  EXPECT_LE(phy::simd::active_tier(), phy::simd::detect_best_tier());
}

TEST(SimdDispatch, ScopedTierOverridesAndRestores) {
  const Tier ambient = phy::simd::active_tier();
  {
    const phy::simd::ScopedTier pin(Tier::kScalar);
    EXPECT_EQ(phy::simd::active_tier(), Tier::kScalar);
    {
      // Requesting more than the hardware offers clamps, never lies.
      const phy::simd::ScopedTier wish(Tier::kAvx2);
      EXPECT_LE(phy::simd::active_tier(), phy::simd::detect_best_tier());
    }
    EXPECT_EQ(phy::simd::active_tier(), Tier::kScalar);
  }
  EXPECT_EQ(phy::simd::active_tier(), ambient);
}

TEST(SimdDispatch, TierNames) {
  EXPECT_STREQ(phy::simd::tier_name(Tier::kScalar), "scalar");
  EXPECT_STREQ(phy::simd::tier_name(Tier::kAvx2), "avx2");
}

// ---------------------------------------------------------------------
// Viterbi ACS.
// ---------------------------------------------------------------------

BitVec random_info_bits(util::Rng& rng, std::size_t n_info) {
  BitVec bits(n_info, 0);
  for (std::size_t i = 0; i + phy::kConstraintLength - 1 < n_info; ++i) {
    bits[i] = static_cast<std::uint8_t>(rng.uniform_int(2));
  }
  return bits;
}

/// Same fuzz regimes as test_viterbi_equiv.cpp: clean, moderate noise,
/// extreme noise (sign is chance), all-ties, punctured-style erasures.
/// The ties matter most here — the vector compare must keep the scalar
/// path's strict-greater survivor rule bit for bit.
std::vector<double> fuzz_llrs(util::Rng& rng, const BitVec& coded,
                              int regime) {
  std::vector<double> llrs(coded.size());
  for (std::size_t i = 0; i < coded.size(); ++i) {
    const double clean = coded[i] != 0 ? -4.0 : 4.0;
    switch (regime) {
      case 0:
        llrs[i] = clean;
        break;
      case 1:
        llrs[i] = clean + rng.uniform(-6.0, 6.0);
        break;
      case 2:
        llrs[i] = rng.uniform(-1e6, 1e6);
        break;
      case 3:
        llrs[i] = 0.0;
        break;
      default:
        llrs[i] = rng.uniform_int(3) == 0 ? 0.0
                                          : clean + rng.uniform(-2.0, 2.0);
        break;
    }
  }
  return llrs;
}

TEST(SimdParity, ViterbiEveryTierMatchesReference) {
  const std::vector<Tier> tiers = runnable_tiers();
  phy::ViterbiWorkspace ws;
  BitVec decoded;
  for (std::uint64_t trial = 0; trial < 1000; ++trial) {
    util::Rng rng(0x51'3D'00 + trial);
    const std::size_t n_info = 8 + rng.uniform_int(201);
    const BitVec info = random_info_bits(rng, n_info);
    const BitVec coded = phy::convolutional_encode(info);
    const std::vector<double> llrs =
        fuzz_llrs(rng, coded, static_cast<int>(trial % 5));

    const BitVec expect = phy::detail::viterbi_reference(llrs);
    for (const Tier t : tiers) {
      const phy::simd::ScopedTier pin(t);
      phy::viterbi_decode(llrs, ws, decoded);
      ASSERT_EQ(decoded, expect)
          << "trial " << trial << " n_info " << n_info << " regime "
          << trial % 5 << " tier " << phy::simd::tier_name(t);
    }
  }
}

/// A-MPDU-length trellises: a fig5 round decodes 53 270 info bits, far
/// past the fuzz above, and the kernels run the whole trellis in one
/// call. Odd and even step counts end in different halves of the
/// kernels' metric ping-pong. Extreme noise (every LLR sign is chance)
/// still leaves state 0 reachable (DESIGN.md §12.1), so the max-element
/// fallback cannot fire here; the end metrics it would read are pinned
/// by SimdParity.AcsRunMatchesForwardPassModel below.
TEST(SimdParity, ViterbiLongTrellisEveryTierMatchesReference) {
  struct Case {
    std::size_t n_info;
    int regime;
  };
  constexpr Case kCases[] = {{53'270, 1}, {50'001, 2}, {50'000, 4},
                             {50'003, 3}};
  const std::vector<Tier> tiers = runnable_tiers();
  phy::ViterbiWorkspace ws;
  BitVec decoded;
  for (const Case& c : kCases) {
    util::Rng rng(0x10'46'00 + c.n_info);
    const BitVec info = random_info_bits(rng, c.n_info);
    const BitVec coded = phy::convolutional_encode(info);
    const std::vector<double> llrs = fuzz_llrs(rng, coded, c.regime);

    const BitVec expect = phy::detail::viterbi_reference(llrs);
    for (const Tier t : tiers) {
      const phy::simd::ScopedTier pin(t);
      phy::viterbi_decode(llrs, ws, decoded);
      ASSERT_EQ(decoded, expect)
          << "n_info " << c.n_info << " regime " << c.regime << " tier "
          << phy::simd::tier_name(t);
    }
  }
}

using Metrics = std::array<double, phy::kNumStates>;

/// Forward pass written from the encoder's definition, independent of
/// the kernels' trellis tables: next state ns is entered from the 7-bit
/// registers f = 2ns (k = 0) and 2ns + 1 (k = 1), whose top six bits are
/// the predecessor f & 63; each branch scores (metric + ±la) + ±lb.
void acs_model(std::span<const double> llrs, Metrics& metrics,
               std::vector<std::uint64_t>& dec) {
  dec.assign(llrs.size() / 2, 0);
  Metrics next{};
  for (std::size_t t = 0; t < dec.size(); ++t) {
    const double la = llrs[2 * t];
    const double lb = llrs[2 * t + 1];
    for (std::uint32_t ns = 0; ns < phy::kNumStates; ++ns) {
      double m[2];
      for (std::uint32_t k = 0; k < 2; ++k) {
        const std::uint32_t f = 2 * ns + k;
        const double pa = (std::popcount(f & phy::kGenPolyA) & 1) ? -la : la;
        const double pb = (std::popcount(f & phy::kGenPolyB) & 1) ? -lb : lb;
        m[k] = (metrics[f & (phy::kNumStates - 1)] + pa) + pb;
      }
      const bool take1 = m[1] > m[0];
      next[ns] = take1 ? m[1] : m[0];
      dec[t] |= static_cast<std::uint64_t>(take1) << ns;
    }
    metrics = next;
  }
}

/// The kernel contract itself: end metrics written back in place and one
/// decision word per step, bit-identical to the model on every tier, for
/// odd and even step counts (an odd count ends in the kernel's own
/// buffer and must be copied back).
TEST(SimdParity, AcsRunMatchesForwardPassModel) {
  const std::vector<Tier> tiers = runnable_tiers();
  std::vector<std::uint64_t> expect_dec;
  std::vector<std::uint64_t> dec;
  constexpr std::size_t kSteps[] = {1, 2, 7, 64, 50'001, 50'000};
  std::uint64_t trial = 0;
  for (const std::size_t n_steps : kSteps) {
    for (int regime = 0; regime < 5; ++regime, ++trial) {
      util::Rng rng(0xAC'50'00 + trial);
      const BitVec coded =
          phy::convolutional_encode(random_info_bits(rng, n_steps));
      const std::vector<double> llrs = fuzz_llrs(rng, coded, regime);
      Metrics start{};
      for (double& m : start) m = rng.uniform(-50.0, 50.0);

      Metrics expect_metrics = start;
      acs_model(llrs, expect_metrics, expect_dec);
      for (const Tier t : tiers) {
        alignas(32) Metrics metrics = start;
        dec.assign(n_steps, 0);
        phy::simd::kernels_for(t).acs_run(llrs.data(), n_steps,
                                          metrics.data(), dec.data());
        ASSERT_EQ(std::memcmp(metrics.data(), expect_metrics.data(),
                              sizeof(Metrics)),
                  0)
            << "n_steps " << n_steps << " regime " << regime << " tier "
            << phy::simd::tier_name(t);
        ASSERT_EQ(dec, expect_dec)
            << "n_steps " << n_steps << " regime " << regime << " tier "
            << phy::simd::tier_name(t);
      }
    }
  }
}

// ---------------------------------------------------------------------
// Soft demap.
// ---------------------------------------------------------------------

constexpr phy::Modulation kMods[] = {
    phy::Modulation::kBpsk, phy::Modulation::kQpsk, phy::Modulation::kQam16,
    phy::Modulation::kQam64};

/// Fuzz points: random complexes, exact constellation points (ties in
/// the per-bit minima), and far outliers; noise variances span tiny to
/// the 1e18 dead-bin regime equalize() emits for nulled subcarriers.
void fuzz_points(util::Rng& rng, phy::Modulation mod, std::size_t count,
                 util::CxVec& points, std::vector<double>& noise_vars) {
  const std::span<const util::Cx> table = phy::constellation_points(mod);
  points.resize(count);
  noise_vars.resize(count);
  for (std::size_t p = 0; p < count; ++p) {
    switch (rng.uniform_int(4)) {
      case 0:
        points[p] = table[rng.uniform_int(table.size())];  // exact: ties
        break;
      case 1:
        points[p] = rng.complex_normal(1.0);
        break;
      case 2:
        points[p] = rng.complex_normal(100.0);  // far outlier
        break;
      default:
        points[p] = util::Cx(0.0, 0.0);  // equidistant center
        break;
    }
    switch (rng.uniform_int(3)) {
      case 0:
        noise_vars[p] = 1e18;  // dead bin
        break;
      case 1:
        noise_vars[p] = 1e-12;
        break;
      default:
        noise_vars[p] = rng.uniform(1e-3, 10.0);
        break;
    }
  }
}

TEST(SimdParity, DemapEveryTierMatchesReference) {
  const std::vector<Tier> tiers = runnable_tiers();
  util::CxVec points;
  std::vector<double> noise_vars;
  std::vector<double> got;
  for (std::uint64_t trial = 0; trial < 200; ++trial) {
    util::Rng rng(0xD3'3A'90 + trial);
    for (const phy::Modulation mod : kMods) {
      // Odd counts exercise the vector kernels' scalar tails.
      const std::size_t count = 1 + rng.uniform_int(97);
      fuzz_points(rng, mod, count, points, noise_vars);
      const std::vector<double> expect =
          phy::detail::demap_soft_reference(points, mod, noise_vars);
      for (const Tier t : tiers) {
        const phy::simd::ScopedTier pin(t);
        phy::demap_soft_into(points, mod, noise_vars, got);
        ASSERT_EQ(got.size(), expect.size());
        ASSERT_EQ(std::memcmp(got.data(), expect.data(),
                              expect.size() * sizeof(double)),
                  0)
            << "trial " << trial << " mod " << bits_per_symbol(mod)
            << " bpsc, count " << count << " tier "
            << phy::simd::tier_name(t);
      }
    }
  }
}

// ---------------------------------------------------------------------
// Equalize.
// ---------------------------------------------------------------------

/// Fuzz a channel estimate + received symbol: random h with occasional
/// dead bins (|h|^2 < 1e-18 must select the neutral point),
/// near-dead bins straddling the threshold, and noise variances from
/// the degenerate zero (floored to 1e-12) to large.
void fuzz_channel(util::Rng& rng, phy::FreqSymbol& rx,
                  phy::ChannelEstimate& est) {
  est = phy::ChannelEstimate{};
  const auto data_sc = phy::data_subcarriers();
  for (const int sc : data_sc) {
    const unsigned bin = phy::bin_index(sc);
    switch (rng.uniform_int(4)) {
      case 0:
        est.h[bin] = util::Cx{};  // dead bin
        break;
      case 1:
        est.h[bin] = rng.complex_normal(1e-10);  // straddles kMinGain
        break;
      default:
        est.h[bin] = rng.complex_normal(1.0);
        break;
    }
    rx[bin] = rng.complex_normal(1.0);
  }
  const auto pilot_sc = phy::pilot_subcarriers();
  for (const int sc : pilot_sc) {
    const unsigned bin = phy::bin_index(sc);
    est.h[bin] = rng.complex_normal(1.0);
    rx[bin] = rng.complex_normal(1.0);
  }
  est.noise_var = rng.uniform_int(3) == 0 ? 0.0 : rng.uniform(1e-6, 10.0);
  est.mean_gain = 1.0;
}

/// equalize_into's arithmetic written out from channel_est.hpp, apart
/// from channel_est.cpp: the pilot common-phase-error estimate, then per
/// data bin the separable divide in its documented association.
void equalize_model(const phy::FreqSymbol& rx, const phy::ChannelEstimate& est,
                    std::size_t symbol_index, bool cpe_correction,
                    phy::EqualizedSymbol& out) {
  util::Cx cpe{1.0, 0.0};
  if (cpe_correction) {
    const auto pilots_rx = phy::extract_pilots(rx);
    const auto pilots_tx = phy::pilot_values(symbol_index);
    const auto pilot_sc = phy::pilot_subcarriers();
    util::Cx acc{};
    for (std::size_t i = 0; i < phy::kNumPilots; ++i) {
      const util::Cx expected =
          est.h[phy::bin_index(pilot_sc[i])] * pilots_tx[i];
      acc += pilots_rx[i] * std::conj(expected);
    }
    if (std::abs(acc) > 0.0) cpe = acc / std::abs(acc);
  }
  const double cr = cpe.real();
  const double ci = cpe.imag();
  const double noise_floor = std::max(est.noise_var, 1e-12);
  out.points.clear();
  out.noise_vars.clear();
  for (const int sc : phy::data_subcarriers()) {
    const util::Cx h = est.h[phy::bin_index(sc)];
    const util::Cx r = rx[phy::bin_index(sc)];
    const double hr = h.real(), hi = h.imag(), rr = r.real(), ri = r.imag();
    const double g = hr * hr + hi * hi;
    if (g < 1e-18) {
      out.points.emplace_back(0.0, 0.0);
      out.noise_vars.push_back(1e18);
      continue;
    }
    const double yr = rr * cr + ri * ci;
    const double yi = ri * cr - rr * ci;
    out.points.emplace_back((yr * hr + yi * hi) / g, (yi * hr - yr * hi) / g);
    out.noise_vars.push_back(noise_floor / g);
  }
}

TEST(SimdParity, EqualizeMatchesSeparableFormulaModel) {
  phy::FreqSymbol rx{};
  phy::ChannelEstimate est;
  phy::EqualizedSymbol expect, got;
  for (std::uint64_t trial = 0; trial < 500; ++trial) {
    util::Rng rng(0xE9'0A'11 + trial);
    fuzz_channel(rng, rx, est);
    const bool cpe = (trial % 2) == 0;
    equalize_model(rx, est, trial % 7, cpe, expect);
    phy::equalize_into(rx, est, trial % 7, cpe, got);
    ASSERT_EQ(got.points.size(), expect.points.size());
    ASSERT_EQ(got.noise_vars.size(), expect.noise_vars.size());
    ASSERT_EQ(std::memcmp(got.points.data(), expect.points.data(),
                          expect.points.size() * sizeof(util::Cx)),
              0)
        << "trial " << trial;
    ASSERT_EQ(std::memcmp(got.noise_vars.data(), expect.noise_vars.data(),
                          expect.noise_vars.size() * sizeof(double)),
              0)
        << "trial " << trial;
  }
}

TEST(SimdParity, EqualizeKernelMatchesComplexDivisionReference) {
  // The kernel computes y * conj(h) / |h|^2 in separable real
  // arithmetic; the reference uses std::complex operator/ (libgcc's
  // scaled Smith algorithm). Identical real math is impossible, so this
  // pins the agreement to a few ULP in relative terms instead — enough
  // that the demapper's LLRs are indistinguishable.
  phy::FreqSymbol rx{};
  phy::ChannelEstimate est;
  phy::EqualizedSymbol got;
  for (std::uint64_t trial = 0; trial < 200; ++trial) {
    util::Rng rng(0xE9'0B'22 + trial);
    fuzz_channel(rng, rx, est);
    const bool cpe = (trial % 2) == 0;
    phy::equalize_into(rx, est, trial % 7, cpe, got);
    const phy::EqualizedSymbol expect =
        phy::detail::equalize_reference(rx, est, trial % 7, cpe);
    ASSERT_EQ(got.points.size(), expect.points.size());
    for (std::size_t i = 0; i < expect.points.size(); ++i) {
      const double scale = std::max(1.0, std::abs(expect.points[i]));
      ASSERT_NEAR(got.points[i].real(), expect.points[i].real(),
                  1e-12 * scale)
          << "trial " << trial << " point " << i;
      ASSERT_NEAR(got.points[i].imag(), expect.points[i].imag(),
                  1e-12 * scale)
          << "trial " << trial << " point " << i;
      ASSERT_NEAR(got.noise_vars[i], expect.noise_vars[i],
                  1e-12 * expect.noise_vars[i])
          << "trial " << trial << " point " << i;
    }
  }
}

}  // namespace
}  // namespace witag
