#include "phy/ppdu.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "phy/constellation.hpp"
#include "phy/convolutional.hpp"
#include "phy/interleaver.hpp"
#include "phy/preamble.hpp"
#include "phy/scrambler.hpp"
#include "util/rng.hpp"

namespace witag::phy {
namespace {

using util::Cx;

class PpduAllMcs : public ::testing::TestWithParam<unsigned> {};

TEST_P(PpduAllMcs, CleanRoundTrip) {
  util::Rng rng(GetParam());
  const util::ByteVec psdu = rng.bytes(300);
  TxConfig cfg;
  cfg.mcs_index = GetParam();
  const TxPpdu ppdu = transmit(psdu, cfg);
  const RxResult rx = receive(ppdu.symbols, {});
  ASSERT_TRUE(rx.sig_ok);
  EXPECT_EQ(rx.sig.mcs_index, GetParam());
  EXPECT_EQ(rx.psdu, psdu);
}

TEST_P(PpduAllMcs, RoundTripThroughRandomChannelWithNoise) {
  util::Rng rng(100 + GetParam());
  const util::ByteVec psdu = rng.bytes(200);
  TxConfig cfg;
  cfg.mcs_index = GetParam();
  const TxPpdu ppdu = transmit(psdu, cfg);

  // Mild multipath-ish channel + 40 dB SNR (spread kept small enough
  // that the worst faded bin still clears 64-QAM 3/4's threshold).
  FreqSymbol h{};
  for (unsigned bin = 0; bin < kFftSize; ++bin) {
    h[bin] = Cx{1.0, 0.0} + 0.2 * rng.complex_normal(1.0);
  }
  const double noise_var = 1e-4;  // ~40 dB below unit power
  std::vector<FreqSymbol> rx_syms(ppdu.symbols.size());
  for (std::size_t s = 0; s < ppdu.symbols.size(); ++s) {
    for (unsigned bin = 0; bin < kFftSize; ++bin) {
      if (ppdu.symbols[s][bin] == Cx{} && h[bin] == Cx{}) continue;
      rx_syms[s][bin] =
          h[bin] * ppdu.symbols[s][bin] + rng.complex_normal(noise_var);
    }
  }
  const RxResult rx = receive(rx_syms, {});
  ASSERT_TRUE(rx.sig_ok);
  EXPECT_EQ(rx.psdu, psdu) << "MCS " << GetParam();
}

TEST_P(PpduAllMcs, DataSymbolCountMatchesMcsTable) {
  util::Rng rng(GetParam());
  const util::ByteVec psdu = rng.bytes(777);
  TxConfig cfg;
  cfg.mcs_index = GetParam();
  const TxPpdu ppdu = transmit(psdu, cfg);
  EXPECT_EQ(ppdu.n_data_symbols, data_symbols_for(psdu.size(), mcs(GetParam())));
  EXPECT_EQ(ppdu.symbols.size(), kHeaderSlots + ppdu.n_data_symbols);
}

INSTANTIATE_TEST_SUITE_P(AllMcs, PpduAllMcs,
                         ::testing::Range(0u, kNumMcs));

TEST(Ppdu, SlotKindsFollowLayout) {
  util::Rng rng(1);
  const util::ByteVec psdu = rng.bytes(64);
  const TxPpdu ppdu = transmit(psdu, {});
  EXPECT_EQ(ppdu.kind(0), SlotKind::kStf);
  EXPECT_EQ(ppdu.kind(1), SlotKind::kLtf);
  EXPECT_EQ(ppdu.kind(2), SlotKind::kLtf);
  EXPECT_EQ(ppdu.kind(3), SlotKind::kSig);
  EXPECT_EQ(ppdu.kind(4), SlotKind::kSig);
  EXPECT_EQ(ppdu.kind(5), SlotKind::kData);
  EXPECT_THROW(ppdu.kind(ppdu.size()), std::invalid_argument);
}

TEST(Ppdu, DurationIsFourMicrosecondsPerSlot) {
  util::Rng rng(2);
  const TxPpdu ppdu = transmit(rng.bytes(100), {});
  EXPECT_DOUBLE_EQ(ppdu.duration_us(), 4.0 * static_cast<double>(ppdu.size()));
}

TEST(Ppdu, PreambleSlotsCarryTrainingSymbols) {
  util::Rng rng(3);
  const TxPpdu ppdu = transmit(rng.bytes(32), {});
  EXPECT_EQ(ppdu.symbols[0], stf_symbol());
  EXPECT_EQ(ppdu.symbols[1], ltf_symbol());
  EXPECT_EQ(ppdu.symbols[2], ltf_symbol());
}

TEST(Ppdu, CorruptedSigIsDropped) {
  util::Rng rng(4);
  const TxPpdu ppdu = transmit(rng.bytes(50), {});
  std::vector<FreqSymbol> symbols = ppdu.symbols;
  // Destroy both SIG symbols.
  for (std::size_t s = kPreambleSlots; s < kHeaderSlots; ++s) {
    for (auto& v : symbols[s]) v = rng.complex_normal(1.0);
  }
  const RxResult rx = receive(symbols, {});
  EXPECT_FALSE(rx.sig_ok);
  EXPECT_TRUE(rx.psdu.empty());
}

TEST(Ppdu, MidFrameChannelChangeCorruptsOnlyThatRegion) {
  // The WiTAG mechanism at PHY granularity: flip the channel during a
  // band of data symbols; bytes decoded from other regions stay intact.
  util::Rng rng(5);
  const util::ByteVec psdu = rng.bytes(26 * 20);  // 20 symbols at MCS5
  TxConfig cfg;
  cfg.mcs_index = 5;
  const TxPpdu ppdu = transmit(psdu, cfg);

  std::vector<FreqSymbol> symbols = ppdu.symbols;
  const std::size_t first_data = kHeaderSlots;
  // Perturb a mid band of symbols with a per-subcarrier channel change,
  // the way a tag's extra reflected path does (a change common to all
  // subcarriers would be repaired by pilot CPE tracking).
  FreqSymbol delta{};
  for (unsigned bin = 0; bin < kFftSize; ++bin) {
    delta[bin] = 0.5 * rng.complex_normal(1.0);
  }
  const std::size_t from = first_data + 8;
  const std::size_t to = first_data + 12;
  for (std::size_t s = from; s < to && s < symbols.size(); ++s) {
    for (unsigned bin = 0; bin < kFftSize; ++bin) {
      symbols[s][bin] *= Cx{1.0, 0.0} + delta[bin];
    }
  }
  const RxResult rx = receive(symbols, {});
  ASSERT_TRUE(rx.sig_ok);
  ASSERT_EQ(rx.psdu.size(), psdu.size());

  // Region well before the disturbance decodes cleanly.
  const McsParams& m = mcs(5);
  const std::size_t bytes_per_symbol = m.n_dbps / 8;
  const std::size_t clean_until = (8 - 1) * bytes_per_symbol - 4;
  std::size_t mismatches_before = 0;
  for (std::size_t i = 0; i < clean_until; ++i) {
    mismatches_before += rx.psdu[i] != psdu[i] ? 1u : 0u;
  }
  EXPECT_EQ(mismatches_before, 0u);

  // The disturbed region itself must be corrupted.
  std::size_t mismatches_within = 0;
  for (std::size_t i = 8 * bytes_per_symbol; i < 12 * bytes_per_symbol; ++i) {
    mismatches_within += rx.psdu[i] != psdu[i] ? 1u : 0u;
  }
  EXPECT_GT(mismatches_within, 10u);
}

TEST(Ppdu, RejectsBadInput) {
  EXPECT_THROW(transmit({}, {}), std::invalid_argument);
  util::Rng rng(7);
  const util::ByteVec big(65536, 0);
  EXPECT_THROW(transmit(big, {}), std::invalid_argument);
  const std::vector<FreqSymbol> few(3);
  EXPECT_THROW(receive(few, {}), std::invalid_argument);
}

TEST(Ppdu, ScramblerSeedDoesNotAffectDecode) {
  util::Rng rng(8);
  const util::ByteVec psdu = rng.bytes(80);
  for (const std::uint8_t seed : {1, 55, 93, 127}) {
    TxConfig cfg;
    cfg.scrambler_seed = seed;
    const TxPpdu ppdu = transmit(psdu, cfg);
    const RxResult rx = receive(ppdu.symbols, {});
    ASSERT_TRUE(rx.sig_ok) << "seed " << int(seed);
    EXPECT_EQ(rx.psdu, psdu) << "seed " << int(seed);
  }
}

// The stage-by-stage 802.11 chain that transmit() fuses into one pass:
// each stage materialises its whole output, using the bit-serial
// scrambler and popcount encoder references.
void spec_field(std::span<const std::uint8_t> bits, Modulation mod,
                CodeRate rate, std::size_t first_symbol_index,
                std::vector<FreqSymbol>& out) {
  const util::BitVec coded =
      puncture(detail::convolutional_encode_reference(bits), rate);
  const unsigned n_cbps = kDataSubcarriers * bits_per_symbol(mod);
  ASSERT_EQ(coded.size() % n_cbps, 0u);
  for (std::size_t off = 0; off < coded.size(); off += n_cbps) {
    const util::BitVec interleaved =
        interleave(std::span(coded).subspan(off, n_cbps), mod);
    out.push_back(assemble_data_symbol(map_bits(interleaved, mod),
                                       first_symbol_index + off / n_cbps));
  }
}

std::vector<FreqSymbol> spec_transmit(std::span<const std::uint8_t> psdu,
                                      const TxConfig& cfg) {
  const McsParams& m = mcs(cfg.mcs_index);
  std::vector<FreqSymbol> symbols{stf_symbol(), ltf_symbol(), ltf_symbol()};
  spec_field(encode_sig(HtSig{cfg.mcs_index, psdu.size()}), Modulation::kBpsk,
             CodeRate::kHalf, 0, symbols);

  util::BitWriter w;
  w.write(0, 16);  // SERVICE
  w.write_bits(util::bytes_to_bits(psdu));
  w.write(0, 6);  // tail
  util::BitVec data = w.take();
  data.resize(data_symbols_for(psdu.size(), m) * m.n_dbps, 0);
  util::BitVec scrambled = detail::scramble_reference(data, cfg.scrambler_seed);
  std::fill_n(scrambled.begin() + static_cast<std::ptrdiff_t>(16 + 8 * psdu.size()),
              6, std::uint8_t{0});
  spec_field(scrambled, m.modulation, m.rate, kSigSymbols, symbols);
  return symbols;
}

TEST(PpduTransmit, MatchesSpecChainEveryMcs) {
  util::Rng rng(0x5EC);
  for (const std::size_t length : {1u, 2u, 3u, 25u, 97u, 1500u, 6656u, 65535u}) {
    const util::ByteVec psdu = rng.bytes(length);
    for (unsigned mcs_index = 0; mcs_index < kNumMcs; ++mcs_index) {
      for (const std::uint8_t seed : {0x01, 0x5D, 0x7F}) {
        const TxConfig cfg{mcs_index, seed};
        const TxPpdu got = transmit(psdu, cfg);
        const std::vector<FreqSymbol> want = spec_transmit(psdu, cfg);
        ASSERT_EQ(got.symbols.size(), want.size())
            << "MCS " << mcs_index << " length " << length;
        ASSERT_EQ(got.n_data_symbols, want.size() - kHeaderSlots);
        ASSERT_EQ(got.sig, (HtSig{mcs_index, length}));
        ASSERT_EQ(std::memcmp(got.symbols.data(), want.data(),
                              want.size() * sizeof(FreqSymbol)),
                  0)
            << "MCS " << mcs_index << " length " << length << " seed "
            << int(seed);
      }
    }
  }
}

TEST(PpduTransmit, RejectsScramblerSeedOutsideLfsrStates) {
  // 0 would be the degenerate all-zero LFSR state, and 128+ would index
  // past the 128-entry keystream tables.
  util::Rng rng(9);
  for (const std::uint8_t seed : {0, 128, 255}) {
    TxConfig cfg;
    cfg.scrambler_seed = seed;
    EXPECT_THROW(transmit(rng.bytes(10), cfg), std::invalid_argument)
        << "seed " << int(seed);
  }
}

}  // namespace
}  // namespace witag::phy
