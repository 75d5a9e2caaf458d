#include "phy/fft.hpp"

#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "phy/ofdm.hpp"
#include "util/require.hpp"
#include "util/units.hpp"

namespace witag::phy {
namespace {

using util::Cx;

constexpr std::size_t kN = kFftSize;

// log2(64) is even, so the radix-2 stage ladder splits into fused pairs
// with no standalone length-2 stage left over.
static_assert(std::countr_zero(kN) % 2 == 0);

/// Stage twiddles concatenated (len = 2, 4, ..., 64; len/2 entries per
/// stage, 63 in all).
using Twiddles = std::array<Cx, kN - 1>;

/// The transform's execution plan: the bit-reversal swap pairs and one
/// twiddle table per direction.
struct Plan {
  std::vector<std::pair<std::uint8_t, std::uint8_t>> swaps;
  Twiddles fwd{};
  Twiddles inv{};
};

Twiddles build_twiddles(bool inverse) {
  Twiddles tw{};
  std::size_t at = 0;
  const double sign = inverse ? 1.0 : -1.0;
  for (std::size_t len = 2; len <= kN; len <<= 1) {
    const double angle = sign * 2.0 * util::kPi / static_cast<double>(len);
    const Cx wlen{std::cos(angle), std::sin(angle)};
    // Same incremental recurrence as the reference transform so the
    // tabled values match it to the last bit.
    Cx w{1.0, 0.0};
    for (std::size_t k = 0; k < len / 2; ++k) {
      tw[at++] = w;
      w *= wlen;
    }
  }
  return tw;
}

Plan build_plan() {
  Plan plan;
  for (std::size_t i = 1, j = 0; i < kN; ++i) {
    std::size_t bit = kN >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) {
      plan.swaps.emplace_back(static_cast<std::uint8_t>(i),
                              static_cast<std::uint8_t>(j));
    }
  }
  plan.fwd = build_twiddles(false);
  plan.inv = build_twiddles(true);
  return plan;
}

/// One fused radix-4 pass: the two consecutive radix-2 stages with
/// half-lengths `h` and `2*h` over blocks of `4*h` elements. `w1` points
/// at the h-half stage's twiddles (h entries), `w2` at the 2h-half
/// stage's (2*h entries). Each output of stage L feeds exactly one
/// butterfly of stage 2L, so fusing reorders operations only across
/// independent elements: the result is bit-identical to running the two
/// stages back to back, with half the sweeps over the data.
void radix4_pass(Cx* data, std::size_t h, const Cx* w1, const Cx* w2) {
  // k outer so each twiddle triple is loaded once per pass instead of
  // once per block.
  for (std::size_t k = 0; k < h; ++k) {
    const Cx w1k = w1[k];
    const Cx w2k = w2[k];
    const Cx w2kh = w2[k + h];
    for (std::size_t i = 0; i < kN; i += 4 * h) {
      Cx& d0 = data[i + k];
      Cx& d1 = data[i + k + h];
      Cx& d2 = data[i + k + 2 * h];
      Cx& d3 = data[i + k + 3 * h];
      // First (half-h) stage on both sub-blocks, then the half-2h
      // stage across them.
      const Cx t = d1 * w1k;
      const Cx s0 = d0 + t;
      const Cx s1 = d0 - t;
      const Cx u = d3 * w1k;
      const Cx s2 = d2 + u;
      const Cx s3 = d2 - u;
      const Cx v0 = s2 * w2k;
      const Cx v1 = s3 * w2kh;
      d0 = s0 + v0;
      d2 = s0 - v0;
      d1 = s1 + v1;
      d3 = s1 - v1;
    }
  }
}

void transform(std::span<Cx> data, bool inverse) {
  WITAG_REQUIRE(data.size() == kN);
  static const Plan kPlan = build_plan();

  for (const auto& [i, j] : kPlan.swaps) std::swap(data[i], data[j]);

  // The stage with half-length h starts at offset h - 1 of the table.
  const Cx* tw = inverse ? kPlan.inv.data() : kPlan.fwd.data();
  for (std::size_t h = 1; 4 * h <= kN; h *= 4) {
    radix4_pass(data.data(), h, tw + (h - 1), tw + (2 * h - 1));
  }
  const double scale = 1.0 / std::sqrt(static_cast<double>(kN));
  for (Cx& x : data) x *= scale;
}

}  // namespace

namespace detail {

void fft_reference_inplace(std::span<Cx> data, bool inverse) {
  const std::size_t n = data.size();
  WITAG_REQUIRE(n >= 1 && std::has_single_bit(n));
  if (n == 1) return;

  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }

  const double sign = inverse ? 1.0 : -1.0;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = sign * 2.0 * util::kPi / static_cast<double>(len);
    const Cx wlen{std::cos(angle), std::sin(angle)};
    for (std::size_t i = 0; i < n; i += len) {
      Cx w{1.0, 0.0};
      for (std::size_t k = 0; k < len / 2; ++k) {
        const Cx u = data[i + k];
        const Cx v = data[i + k + len / 2] * w;
        data[i + k] = u + v;
        data[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }

  const double scale = 1.0 / std::sqrt(static_cast<double>(n));
  for (Cx& x : data) x *= scale;
}

}  // namespace detail

void fft_inplace(std::span<Cx> data) {
  WITAG_SPAN_CAT("phy.fft", "phy");
  WITAG_COUNT("phy.fft.calls", 1);
  transform(data, false);
}

void ifft_inplace(std::span<Cx> data) {
  WITAG_SPAN_CAT("phy.ifft", "phy");
  WITAG_COUNT("phy.ifft.calls", 1);
  transform(data, true);
}

}  // namespace witag::phy
