#include "phy/convolutional.hpp"

#include <array>
#include <bit>
#include <cstddef>

#include "util/require.hpp"

namespace witag::phy {
namespace {

// Keep-masks over one puncturing period, interleaved (A0,B0,A1,B1,...).
constexpr std::array<std::uint8_t, 2> kPattern12{1, 1};
constexpr std::array<std::uint8_t, 4> kPattern23{1, 1, 1, 0};
constexpr std::array<std::uint8_t, 6> kPattern34{1, 1, 1, 0, 0, 1};
constexpr std::array<std::uint8_t, 10> kPattern56{1, 1, 1, 0, 0, 1, 1, 0, 0, 1};

constexpr std::uint8_t parity(std::uint32_t v) {
  return static_cast<std::uint8_t>(static_cast<unsigned>(std::popcount(v)) & 1u);
}

}  // namespace

std::span<const std::uint8_t> puncture_pattern(CodeRate rate) {
  switch (rate) {
    case CodeRate::kHalf: return kPattern12;
    case CodeRate::kTwoThirds: return kPattern23;
    case CodeRate::kThreeQuarters: return kPattern34;
    case CodeRate::kFiveSixths: return kPattern56;
  }
  WITAG_ENSURE(false);
  return kPattern12;
}

util::BitVec convolutional_encode(std::span<const std::uint8_t> bits) {
  util::BitVec out(bits.size() * 2);
  // 7-bit register with the newest input at bit 6 and the oldest at bit 0,
  // matching the MSB-first octal tap constants (133, 171).
  std::uint32_t shift = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    shift = (shift >> 1) | (static_cast<std::uint32_t>(bits[i] & 1u) << 6);
    const std::uint8_t ab = kEncoderLut[shift];
    out[2 * i] = static_cast<std::uint8_t>(ab & 1u);
    out[2 * i + 1] = static_cast<std::uint8_t>(ab >> 1);
  }
  return out;
}

util::BitVec puncture(std::span<const std::uint8_t> coded, CodeRate rate) {
  const auto pattern = puncture_pattern(rate);
  util::BitVec out;
  out.reserve(punctured_length(coded.size(), rate));
  for (std::size_t i = 0; i < coded.size(); ++i) {
    if (pattern[i % pattern.size()]) out.push_back(coded[i]);
  }
  return out;
}

std::size_t punctured_length(std::size_t mother_bits, CodeRate rate) {
  const auto pattern = puncture_pattern(rate);
  std::size_t kept_per_period = 0;
  for (const std::uint8_t k : pattern) kept_per_period += k;
  const std::size_t full = mother_bits / pattern.size();
  std::size_t len = full * kept_per_period;
  for (std::size_t i = full * pattern.size(); i < mother_bits; ++i) {
    if (pattern[i % pattern.size()]) ++len;
  }
  return len;
}

std::vector<double> depuncture(std::span<const double> llrs, CodeRate rate,
                               std::size_t n_coded_bits) {
  WITAG_REQUIRE(n_coded_bits % 2 == 0);
  const auto pattern = puncture_pattern(rate);
  std::vector<double> out(n_coded_bits, 0.0);
  std::size_t src = 0;
  for (std::size_t i = 0; i < n_coded_bits; ++i) {
    if (pattern[i % pattern.size()]) {
      WITAG_REQUIRE(src < llrs.size());
      out[i] = llrs[src++];
    }
  }
  WITAG_REQUIRE(src == llrs.size());
  return out;
}

namespace detail {

util::BitVec convolutional_encode_reference(std::span<const std::uint8_t> bits) {
  util::BitVec out;
  out.reserve(bits.size() * 2);
  std::uint32_t shift = 0;
  for (const std::uint8_t b : bits) {
    shift = (shift >> 1) | (static_cast<std::uint32_t>(b & 1u) << 6);
    out.push_back(parity(shift & kGenPolyA));
    out.push_back(parity(shift & kGenPolyB));
  }
  return out;
}

}  // namespace detail

}  // namespace witag::phy
