#include "phy/batch.hpp"

#include <algorithm>
#include <cstdint>
#include <cstddef>

#include "obs/obs.hpp"
#include "phy/constellation.hpp"
#include "phy/convolutional.hpp"
#include "phy/interleaver.hpp"
#include "phy/plcp.hpp"
#include "phy/scrambler.hpp"
#include "util/require.hpp"

namespace witag::phy {
namespace {

constexpr std::size_t kServiceBits = 16;
constexpr std::size_t kTailBits = 6;

template <typename T>
std::size_t vec_capacity_bytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

detail::LlrScatter make_llr_scatter(Modulation mod, CodeRate rate) {
  const unsigned n_bpsc = bits_per_symbol(mod);
  const std::span<const std::uint8_t> pattern = puncture_pattern(rate);
  const auto kept = static_cast<unsigned>(
      std::count(pattern.begin(), pattern.end(), std::uint8_t{1}));
  detail::LlrScatter t;
  t.n_cbps = kDataSubcarriers * n_bpsc;
  WITAG_ENSURE(t.n_cbps % kept == 0);
  t.mother_per_symbol =
      t.n_cbps / kept * static_cast<unsigned>(pattern.size());
  // Deinterleaved coded bit k is demap output map[k], and depuncture
  // puts the k-th kept bit at the k-th kept mother slot.
  const std::vector<std::size_t> map = interleave_map(t.n_cbps, n_bpsc);
  unsigned k = 0;
  for (unsigned m = 0; m < t.mother_per_symbol; ++m) {
    if (pattern[m % pattern.size()]) {
      t.to[map[k++]] = static_cast<std::uint16_t>(m);
    }
  }
  WITAG_ENSURE(k == t.n_cbps);
  return t;
}

}  // namespace

namespace detail {

void LlrScatter::scatter(std::span<const double> sym_llrs, std::size_t s,
                         std::span<double> mother) const {
  WITAG_REQUIRE(sym_llrs.size() == n_cbps);
  WITAG_REQUIRE(mother.size() >= (s + 1) * mother_per_symbol);
  double* dst = mother.data() + s * mother_per_symbol;
  for (unsigned p = 0; p < n_cbps; ++p) dst[to[p]] = sym_llrs[p];
}

const LlrScatter& llr_scatter(Modulation mod, CodeRate rate) {
  static const std::array<LlrScatter, kNumMcs> kTables = [] {
    std::array<LlrScatter, kNumMcs> tables;
    for (unsigned i = 0; i < kNumMcs; ++i) {
      tables[i] = make_llr_scatter(mcs(i).modulation, mcs(i).rate);
    }
    return tables;
  }();
  for (unsigned i = 0; i < kNumMcs; ++i) {
    if (mcs(i).modulation == mod && mcs(i).rate == rate) return kTables[i];
  }
  WITAG_REQUIRE(false);
  return kTables[0];
}

}  // namespace detail

std::size_t BatchDecoder::capacity_bytes() const {
  return viterbi_.capacity_bytes() + vec_capacity_bytes(eq_.points) +
         vec_capacity_bytes(eq_.noise_vars) + vec_capacity_bytes(sym_llrs_) +
         vec_capacity_bytes(mother_) + vec_capacity_bytes(bits_) +
         vec_capacity_bytes(plain_);
}

void BatchDecoder::decode_field(std::span<const FreqSymbol> symbols,
                                Modulation mod, CodeRate rate,
                                std::size_t first_symbol_index,
                                bool cpe_correction,
                                std::size_t n_info_bits) {
  const detail::LlrScatter& scatter = detail::llr_scatter(mod, rate);
  // Zeroed once: the punctured slots keep the 0.0 erasure.
  mother_.assign(symbols.size() * scatter.mother_per_symbol, 0.0);
  for (std::size_t s = 0; s < symbols.size(); ++s) {
    equalize_into(symbols[s], result_.estimate, first_symbol_index + s,
                  cpe_correction, eq_);
    demap_soft_into(eq_.points, mod, eq_.noise_vars, sym_llrs_);
    scatter.scatter(sym_llrs_, s, mother_);
  }
  if (n_info_bits != 0) {
    WITAG_REQUIRE(2 * n_info_bits <= mother_.size());
    mother_.resize(2 * n_info_bits);
  }
  viterbi_decode(mother_, viterbi_, bits_);
}

const RxResult& BatchDecoder::decode_one(std::span<const FreqSymbol> symbols,
                                         const RxConfig& cfg) {
  WITAG_SPAN_CAT("phy.batch", "phy");
  WITAG_COUNT("phy.batch.decodes", 1);
  WITAG_COUNT("phy.batch.lanes", 1);
  WITAG_REQUIRE(symbols.size() >= kHeaderSlots);
  const std::size_t capacity_before = capacity_bytes();

  RxResult& res = result_;
  res.sig_ok = false;
  res.sig = HtSig{};  // result_ is reused: drop any stale header
  res.psdu.clear();

  // One channel estimate for the whole PPDU, taken from the LTF slots.
  res.estimate = estimate_channel(symbols.subspan(kStfSlots, kLtfSlots));

  // SIG field: BPSK rate 1/2, symbol indices 0..1 (consumed from bits_
  // before the data field reuses the buffer).
  decode_field(symbols.subspan(kPreambleSlots, kSigSymbols),
               Modulation::kBpsk, CodeRate::kHalf, 0, cfg.cpe_correction, 0);
  const auto sig = decode_sig(bits_);
  if (sig && sig->mcs_index < kNumMcs && sig->length != 0) {
    res.sig = *sig;
    const McsParams& m = mcs(res.sig.mcs_index);
    const std::size_t n_sym = data_symbols_for(res.sig.length, m);
    // A truncated capture keeps its decoded header but stays
    // undecodable, like an unusable header.
    if (symbols.size() >= kHeaderSlots + n_sym) {
      res.sig_ok = true;
      // Decode through service + PSDU + tail; the trellis terminates
      // there and the remaining pad bits carry nothing.
      const std::size_t payload_bits = 8 * res.sig.length;
      decode_field(symbols.subspan(kHeaderSlots, n_sym), m.modulation,
                   m.rate, kSigSymbols, cfg.cpe_correction,
                   kServiceBits + payload_bits + kTailBits);

      // Descramble: the service field is transmitted as zeros, so the
      // first 7 scrambled bits reveal the scrambler state (802.11
      // receivers recover the seed the same way).
      descramble_recover_into(bits_, plain_);
      WITAG_ENSURE(plain_.size() >= kServiceBits + payload_bits);
      const std::span<const std::uint8_t> payload(
          plain_.data() + kServiceBits, payload_bits);
      util::bits_to_bytes_into(payload, res.psdu);
    }
  }

  if (capacity_bytes() == capacity_before) {
    WITAG_COUNT("phy.batch.scratch_reuses", 1);
  }
  static obs::Gauge& scratch_gauge = obs::gauge("phy.batch.scratch_bytes");
  scratch_gauge.set(static_cast<double>(capacity_bytes()));
  return res;
}

}  // namespace witag::phy
