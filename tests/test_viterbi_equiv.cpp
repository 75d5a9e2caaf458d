// Fuzz-equivalence tests for the optimized decode hot path: the
// branchless butterfly Viterbi, table-driven scrambler/encoder and
// slicing-by-8 CRC-32 must be bit-identical to the bit-serial
// reference implementations they replaced (kept under detail::).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <span>
#include <vector>

#include "obs/obs.hpp"
#include "phy/convolutional.hpp"
#include "phy/scrambler.hpp"
#include "phy/viterbi.hpp"
#include "util/bits.hpp"
#include "util/crc.hpp"
#include "util/rng.hpp"

namespace witag {
namespace {

using util::BitVec;

/// Random information bits ending in the 6 zero tail bits the decoder
/// assumes terminate the trellis.
BitVec random_info_bits(util::Rng& rng, std::size_t n_info) {
  BitVec bits(n_info, 0);
  for (std::size_t i = 0; i + phy::kConstraintLength - 1 < n_info; ++i) {
    bits[i] = static_cast<std::uint8_t>(rng.uniform_int(2));
  }
  return bits;
}

/// Maps coded bits to LLRs (positive = bit 0) in one of several fuzz
/// regimes, including the degenerate ones the tie-breaking rules exist
/// for.
std::vector<double> fuzz_llrs(util::Rng& rng, const BitVec& coded,
                              int regime) {
  std::vector<double> llrs(coded.size());
  for (std::size_t i = 0; i < coded.size(); ++i) {
    const double clean = coded[i] != 0 ? -4.0 : 4.0;
    switch (regime) {
      case 0:  // clean channel
        llrs[i] = clean;
        break;
      case 1:  // moderate noise
        llrs[i] = clean + rng.uniform(-6.0, 6.0);
        break;
      case 2:  // extreme noise: sign of the LLR is pure chance
        llrs[i] = rng.uniform(-1e6, 1e6);
        break;
      case 3:  // all ties: every add-compare-select is a tie
        llrs[i] = 0.0;
        break;
      default:  // punctured-style erasures amid noise
        llrs[i] = rng.uniform_int(3) == 0 ? 0.0
                                          : clean + rng.uniform(-2.0, 2.0);
        break;
    }
  }
  return llrs;
}

TEST(ViterbiEquiv, FuzzMatchesReferenceOverAllRegimes) {
  phy::ViterbiWorkspace ws;
  BitVec decoded;
  for (std::uint64_t trial = 0; trial < 1000; ++trial) {
    util::Rng rng(0xE0'11'00 + trial);
    const std::size_t n_info = 8 + rng.uniform_int(201);
    const BitVec info = random_info_bits(rng, n_info);
    const BitVec coded = phy::detail::convolutional_encode_reference(info);
    const std::vector<double> llrs =
        fuzz_llrs(rng, coded, static_cast<int>(trial % 5));

    const BitVec expect = phy::detail::viterbi_reference(llrs);
    phy::viterbi_decode(llrs, ws, decoded);
    ASSERT_EQ(decoded, expect) << "trial " << trial << " n_info " << n_info
                               << " regime " << trial % 5;
  }
}

TEST(ViterbiEquiv, AllTiesDecodeToAllZeros) {
  // Zero LLRs tie every branch; both decoders must resolve ties the
  // same way, which lands on the all-zeros path (state 0 throughout).
  const std::vector<double> llrs(2 * 64, 0.0);
  const BitVec expect(64, 0);
  EXPECT_EQ(phy::detail::viterbi_reference(llrs), expect);
  EXPECT_EQ(phy::viterbi_decode(llrs), expect);
}

TEST(ViterbiEquiv, LlrRangeIsEnforcedAtTheSentinelMargin) {
  // Past kMaxLlr the -1e300 sentinel stops acting like -inf: this
  // one-step trellis decodes to 1 on the sentinel path and 0 in the
  // reference, so viterbi_decode must refuse it.
  EXPECT_THROW(phy::viterbi_decode(std::vector<double>{-5e299, 0.0}),
               std::invalid_argument);
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  const double kJustOver = std::nextafter(phy::kMaxLlr, kInf);
  for (const double bad : {kNan, kInf, -kInf, kJustOver, -kJustOver}) {
    std::vector<double> llrs(2 * 16, 4.0);
    llrs[7] = bad;
    EXPECT_THROW(phy::viterbi_decode(llrs), std::invalid_argument) << bad;
  }

  // At the bound itself both decoders still agree, including where the
  // old failure lived: huge LLRs in the first steps of short trellises.
  const double levels[] = {0.0, 4.0, -4.0, phy::kMaxLlr, -phy::kMaxLlr};
  phy::ViterbiWorkspace ws;
  BitVec decoded;
  for (std::uint64_t trial = 0; trial < 2000; ++trial) {
    util::Rng rng(0x11'3A'00 + trial);
    std::vector<double> llrs(2 * (1 + rng.uniform_int(40)));
    for (double& l : llrs) l = levels[rng.uniform_int(5)];
    phy::viterbi_decode(llrs, ws, decoded);
    ASSERT_EQ(decoded, phy::detail::viterbi_reference(llrs))
        << "trial " << trial;
  }
}

TEST(ViterbiEquiv, WorkspaceReusesWithoutGrowing) {
  phy::ViterbiWorkspace ws;
  BitVec decoded;
  util::Rng rng(77);
  const BitVec info = random_info_bits(rng, 1536);
  const BitVec coded = phy::convolutional_encode(info);
  std::vector<double> llrs = fuzz_llrs(rng, coded, 0);

  phy::viterbi_decode(llrs, ws, decoded);  // warm-up sizes the buffers
  EXPECT_EQ(decoded, info);
  const std::size_t warm_capacity = ws.capacity_bytes();
  // One packed 64-bit decision word per trellis step, nothing more.
  ASSERT_EQ(warm_capacity, sizeof(std::uint64_t) * llrs.size() / 2);

  const std::uint64_t reuses_before =
      obs::counter("phy.viterbi.workspace_reuses").value();
  constexpr int kRounds = 100;
  for (int round = 0; round < kRounds; ++round) {
    phy::viterbi_decode(llrs, ws, decoded);
    ASSERT_EQ(decoded, info) << "round " << round;
    ASSERT_EQ(ws.capacity_bytes(), warm_capacity) << "round " << round;
  }
  // Every steady-state decode must have taken the reuse (zero-alloc)
  // path: the counter only increments when existing capacity sufficed.
  EXPECT_EQ(obs::counter("phy.viterbi.workspace_reuses").value(),
            reuses_before + kRounds);
}

TEST(DecodePipelineParity, ScramblerTableMatchesBitSerial) {
  for (std::uint64_t trial = 0; trial < 200; ++trial) {
    util::Rng rng(0x5C'4A + trial);
    const std::size_t n = 7 + rng.uniform_int(2000);
    BitVec bits(n);
    for (auto& b : bits) b = static_cast<std::uint8_t>(rng.uniform_int(2));
    const auto seed =
        static_cast<std::uint8_t>(1 + rng.uniform_int(127));

    EXPECT_EQ(phy::scramble(bits, seed),
              phy::detail::scramble_reference(bits, seed))
        << "trial " << trial;
    const BitVec expect = phy::detail::descramble_recover_reference(bits);
    EXPECT_EQ(phy::descramble_recover(bits), expect) << "trial " << trial;
    BitVec out;
    phy::descramble_recover_into(bits, out);
    EXPECT_EQ(out, expect) << "trial " << trial;
  }
}

TEST(DecodePipelineParity, EncoderLutMatchesBitSerial) {
  for (std::uint64_t trial = 0; trial < 200; ++trial) {
    util::Rng rng(0xEC'0D + trial);
    BitVec bits(1 + rng.uniform_int(1200));
    for (auto& b : bits) b = static_cast<std::uint8_t>(rng.uniform_int(2));
    EXPECT_EQ(phy::convolutional_encode(bits),
              phy::detail::convolutional_encode_reference(bits))
        << "trial " << trial;
  }
}

TEST(DecodePipelineParity, Crc32SlicingMatchesBytewise) {
  // Every length 0..4097 with random content, fed both whole and split
  // at an odd offset to exercise the incremental-state path.
  util::Rng rng(0xC3C3);
  std::vector<std::uint8_t> buf(4097);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.uniform_int(256));
  for (std::size_t len = 0; len <= buf.size(); ++len) {
    const std::span<const std::uint8_t> data(buf.data(), len);
    const std::uint32_t expect =
        util::detail::crc32_update_bytewise(util::crc32_init(), data);
    ASSERT_EQ(util::crc32_update(util::crc32_init(), data), expect)
        << "len " << len;
    const std::size_t cut = len / 3;
    std::uint32_t split = util::crc32_init();
    split = util::crc32_update(split, data.first(cut));
    split = util::crc32_update(split, data.subspan(cut));
    ASSERT_EQ(split, expect) << "len " << len;
  }
}

TEST(DecodePipelineParity, Crc32KnownVectors) {
  const std::uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(util::crc32(check), 0xCBF43926u);
  EXPECT_EQ(util::crc32(std::span<const std::uint8_t>{}), 0x00000000u);
  const std::uint8_t zeros[4] = {0, 0, 0, 0};
  EXPECT_EQ(util::crc32(zeros), 0x2144DF1Cu);
}

}  // namespace
}  // namespace witag
