// BatchDecoder tests: the one PPDU decode pipeline must give the same
// result at every SIMD dispatch tier as at the scalar tier — across
// ragged MCS/length mixes, noisy channels and broken captures
// (corrupted SIG, truncated data) — must not echo a previous PPDU's
// header, and must not allocate in steady state.
#include <gtest/gtest.h>

#include <cstddef>
#include <span>
#include <vector>

#include <cstring>

#include "obs/obs.hpp"
#include "phy/batch.hpp"
#include "phy/convolutional.hpp"
#include "phy/interleaver.hpp"
#include "phy/mcs.hpp"
#include "phy/ppdu.hpp"
#include "phy/simd.hpp"
#include "phy/viterbi.hpp"
#include "util/rng.hpp"

namespace witag {
namespace {

/// One lane's prepared input: the (possibly corrupted) symbol timeline
/// plus how much of it the receiver gets to see.
struct Lane {
  std::vector<phy::FreqSymbol> symbols;
  std::size_t visible = 0;

  std::span<const phy::FreqSymbol> view() const {
    return {symbols.data(), visible};
  }
};

void add_noise(std::vector<phy::FreqSymbol>& symbols, util::Rng& rng,
               double variance, std::size_t first_slot = 0) {
  for (std::size_t s = first_slot; s < symbols.size(); ++s) {
    for (util::Cx& bin : symbols[s]) bin += rng.complex_normal(variance);
  }
}

/// Builds a ragged set of captures: every lane gets its own MCS and
/// PSDU length, and the regime cycle (lane % 4) plants clean, noisy,
/// corrupted-SIG and truncated captures.
std::vector<Lane> make_lanes(std::size_t n, std::uint64_t seed) {
  std::vector<Lane> lanes(n);
  for (std::size_t l = 0; l < n; ++l) {
    util::Rng rng(seed + l);
    phy::TxConfig tx;
    tx.mcs_index = static_cast<unsigned>(rng.uniform_int(phy::kNumMcs));
    const std::size_t length = 1 + rng.uniform_int(600);
    phy::TxPpdu ppdu = phy::transmit(rng.bytes(length), tx);
    Lane& lane = lanes[l];
    lane.symbols = std::move(ppdu.symbols);
    lane.visible = lane.symbols.size();
    switch (l % 4) {
      case 0:  // clean
        break;
      case 1:  // noisy channel: expect occasional payload bit errors
        add_noise(lane.symbols, rng, 0.05);
        break;
      case 2:  // SIG destroyed: header CRC must fail in both paths
        add_noise(lane.symbols, rng, 50.0, phy::kPreambleSlots);
        break;
      default:  // truncated capture (header visible, data cut short)
        add_noise(lane.symbols, rng, 0.01);
        lane.visible = phy::kHeaderSlots +
                       (lane.symbols.size() - phy::kHeaderSlots) / 2;
        break;
    }
  }
  return lanes;
}

std::vector<phy::simd::Tier> runnable_tiers() {
  using phy::simd::Tier;
  std::vector<Tier> tiers{Tier::kScalar};
  const Tier best = phy::simd::detect_best_tier();
  if (best >= Tier::kAvx2) tiers.push_back(Tier::kAvx2);
  return tiers;
}

TEST(BatchDecode, EveryTierMatchesScalar) {
  // The SIMD kernels are each parity-tested in test_simd.cpp; this runs
  // the whole pipeline (equalize → demap → scatter → Viterbi →
  // descramble) per tier, one decoder reused across every capture.
  phy::BatchDecoder decoder;
  const phy::RxConfig cfg;
  const std::vector<Lane> lanes = make_lanes(16, 0x7E'A5);
  std::vector<phy::RxResult> scalar;
  {
    const phy::simd::ScopedTier pin(phy::simd::Tier::kScalar);
    for (const Lane& lane : lanes) {
      scalar.push_back(decoder.decode_one(lane.view(), cfg));
    }
  }
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    const bool decodable = l % 4 < 2;  // clean or noisy
    ASSERT_EQ(scalar[l].sig_ok, decodable) << "lane " << l;
  }
  for (const phy::simd::Tier t : runnable_tiers()) {
    const phy::simd::ScopedTier pin(t);
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      const phy::RxResult& got = decoder.decode_one(lanes[l].view(), cfg);
      ASSERT_EQ(got.sig_ok, scalar[l].sig_ok)
          << "lane " << l << " tier " << phy::simd::tier_name(t);
      ASSERT_EQ(got.sig, scalar[l].sig)
          << "lane " << l << " tier " << phy::simd::tier_name(t);
      ASSERT_EQ(got.psdu, scalar[l].psdu)
          << "lane " << l << " tier " << phy::simd::tier_name(t);
    }
  }
}

TEST(BatchDecode, BrokenLaneDoesNotLeakStaleHeader) {
  // A decoder that decoded a PPDU fine and then gets an undecodable one
  // must not echo the old result: a truncated capture comes back with
  // its own header but no PSDU, and a destroyed SIG with a default
  // header.
  phy::BatchDecoder decoder;
  const phy::RxConfig cfg;
  std::vector<Lane> lanes = make_lanes(1, 0x57'A1);  // l%4==0: clean
  const phy::RxResult clean = decoder.decode_one(lanes[0].view(), cfg);
  ASSERT_TRUE(clean.sig_ok);
  ASSERT_FALSE(clean.psdu.empty());

  const std::span<const phy::FreqSymbol> truncated =
      lanes[0].view().first(lanes[0].visible - 1);
  const phy::RxResult& cut = decoder.decode_one(truncated, cfg);
  EXPECT_FALSE(cut.sig_ok);
  EXPECT_TRUE(cut.psdu.empty());
  EXPECT_EQ(cut.sig, clean.sig);

  ASSERT_TRUE(decoder.decode_one(lanes[0].view(), cfg).sig_ok);
  util::Rng rng(7);
  add_noise(lanes[0].symbols, rng, 50.0, phy::kPreambleSlots);
  const phy::RxResult& got = decoder.decode_one(lanes[0].view(), cfg);
  EXPECT_FALSE(got.sig_ok);
  EXPECT_EQ(got.sig, phy::HtSig{});
  EXPECT_TRUE(got.psdu.empty());
}

TEST(BatchDecode, SteadyStateDecodesWithoutAllocating) {
  phy::BatchDecoder decoder;
  const phy::RxConfig cfg;
  // A mixed-MCS, mixed-length sequence with broken captures in it, the
  // way one Session's exchanges arrive.
  const std::vector<Lane> lanes = make_lanes(8, 0xA1'10C);

  // Two warm-up passes: the first sizes every buffer to the largest
  // capture, the second confirms the high-water mark before asserting.
  for (int pass = 0; pass < 2; ++pass) {
    for (const Lane& lane : lanes) decoder.decode_one(lane.view(), cfg);
  }
  const std::size_t warm_capacity = decoder.capacity_bytes();
  ASSERT_GT(warm_capacity, 0u);

  const std::uint64_t reuses_before =
      obs::counter("phy.batch.scratch_reuses").value();
  constexpr int kRounds = 50;
  for (int round = 0; round < kRounds; ++round) {
    for (const Lane& lane : lanes) {
      decoder.decode_one(lane.view(), cfg);
      ASSERT_EQ(decoder.capacity_bytes(), warm_capacity) << "round " << round;
    }
  }
  // Every steady-state decode must have taken the reuse (zero-alloc)
  // path: the counter only increments when no buffer grew.
  EXPECT_EQ(obs::counter("phy.batch.scratch_reuses").value(),
            reuses_before + kRounds * lanes.size());
}

/// One scatter case: a field of `n_sym` symbols at (mod, rate), decoded
/// through `n_info_bits` (0 = everything).
struct ScatterCase {
  phy::Modulation mod;
  phy::CodeRate rate;
  std::size_t n_sym;
  std::size_t n_info_bits;
};

TEST(BatchDecode, ScatterMatchesDeinterleaveThenDepuncture) {
  util::Rng rng(0x5CA7);
  std::vector<ScatterCase> cases;
  // SIG: two BPSK 1/2 symbols, decoded whole.
  cases.push_back({phy::Modulation::kBpsk, phy::CodeRate::kHalf,
                   phy::kSigSymbols, 0});
  for (unsigned i = 0; i < phy::kNumMcs; ++i) {
    const phy::McsParams& m = phy::mcs(i);
    for (const std::size_t n_sym : {1u, 3u, 17u}) {
      const std::size_t n_info = n_sym * m.n_dbps;
      cases.push_back({m.modulation, m.rate, n_sym, 0});
      cases.push_back({m.modulation, m.rate, n_sym, n_info});
      cases.push_back({m.modulation, m.rate, n_sym, 1 + rng.uniform_int(n_info)});
    }
  }
  const double specials[] = {phy::kMaxLlr, -phy::kMaxLlr, 0.0, -0.0};
  for (const ScatterCase& c : cases) {
    const unsigned n_cbps = phy::kDataSubcarriers * phy::bits_per_symbol(c.mod);
    std::vector<std::vector<double>> sym_llrs(c.n_sym,
                                              std::vector<double>(n_cbps));
    for (auto& sym : sym_llrs) {
      for (double& v : sym) {
        v = rng.uniform_int(4) == 0 ? specials[rng.uniform_int(4)]
                                    : rng.uniform(-30.0, 30.0);
      }
    }

    // Reference: deinterleave each symbol, concatenate, depuncture.
    std::vector<double> concat;
    for (const auto& sym : sym_llrs) {
      const std::vector<double> d = phy::deinterleave_llrs(sym, c.mod);
      concat.insert(concat.end(), d.begin(), d.end());
    }
    const auto frac = phy::rate_fraction(c.rate);
    std::vector<double> want =
        phy::depuncture(concat, c.rate, 2 * (concat.size() * frac.num / frac.den));
    if (c.n_info_bits != 0) want.resize(2 * c.n_info_bits);

    // Scatter, the way BatchDecoder::decode_field runs it.
    const phy::detail::LlrScatter& scatter = phy::detail::llr_scatter(c.mod, c.rate);
    ASSERT_EQ(scatter.n_cbps, n_cbps);
    std::vector<double> got(c.n_sym * scatter.mother_per_symbol, 0.0);
    for (std::size_t s = 0; s < c.n_sym; ++s) {
      scatter.scatter(sym_llrs[s], s, got);
    }
    if (c.n_info_bits != 0) got.resize(2 * c.n_info_bits);

    ASSERT_EQ(got.size(), want.size()) << "n_sym " << c.n_sym;
    EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(double)), 0)
        << "modulation " << static_cast<int>(c.mod) << " rate "
        << static_cast<int>(c.rate) << " n_sym " << c.n_sym << " n_info_bits "
        << c.n_info_bits;
  }
  // A pair no MCS uses (BPSK 2/3: 52 coded bits are not whole periods
  // of 3 kept bits) has no table.
  EXPECT_THROW(phy::detail::llr_scatter(phy::Modulation::kBpsk,
                                        phy::CodeRate::kTwoThirds),
               std::invalid_argument);
}

}  // namespace
}  // namespace witag
