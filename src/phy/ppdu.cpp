#include "phy/ppdu.hpp"

#include <algorithm>
#include <cstddef>

#include "phy/batch.hpp"
#include "phy/constellation.hpp"
#include "phy/convolutional.hpp"
#include "phy/interleaver.hpp"
#include "phy/preamble.hpp"
#include "phy/scrambler.hpp"
#include "util/require.hpp"
#include "util/complexvec.hpp"

namespace witag::phy {
namespace {

constexpr std::size_t kServiceBits = 16;
constexpr std::size_t kTailBits = 6;

// Encodes `bits` (already scrambled where applicable) into OFDM data
// symbols at the given modulation/rate. `bits` must fill a whole number
// of symbols after encoding. `first_symbol_index` sets pilot polarity.
std::vector<FreqSymbol> encode_field(std::span<const std::uint8_t> bits,
                                     Modulation mod, CodeRate rate,
                                     std::size_t first_symbol_index) {
  const util::BitVec mother = convolutional_encode(bits);
  const util::BitVec coded = puncture(mother, rate);
  const unsigned n_cbps = kDataSubcarriers * bits_per_symbol(mod);
  WITAG_REQUIRE(coded.size() % n_cbps == 0);

  std::vector<FreqSymbol> symbols;
  symbols.reserve(coded.size() / n_cbps);
  for (std::size_t off = 0; off < coded.size(); off += n_cbps) {
    const std::span<const std::uint8_t> chunk(coded.data() + off, n_cbps);
    const util::BitVec interleaved = interleave(chunk, mod);
    const util::CxVec points = map_bits(interleaved, mod);
    symbols.push_back(
        assemble_data_symbol(points, first_symbol_index + symbols.size()));
  }
  return symbols;
}

}  // namespace

double TxPpdu::duration_us() const {
  return static_cast<double>(symbols.size()) * kSymbolDurationUs;
}

SlotKind TxPpdu::kind(std::size_t slot) const {
  WITAG_REQUIRE(slot < symbols.size());
  if (slot < kStfSlots) return SlotKind::kStf;
  if (slot < kPreambleSlots) return SlotKind::kLtf;
  if (slot < kHeaderSlots) return SlotKind::kSig;
  return SlotKind::kData;
}

TxPpdu transmit(std::span<const std::uint8_t> psdu, const TxConfig& cfg) {
  WITAG_REQUIRE(!psdu.empty());
  WITAG_REQUIRE(psdu.size() < 65536);
  const McsParams& m = mcs(cfg.mcs_index);

  TxPpdu ppdu;
  ppdu.sig = HtSig{cfg.mcs_index, psdu.size()};

  // Preamble.
  ppdu.symbols.push_back(stf_symbol());
  for (std::size_t i = 0; i < kLtfSlots; ++i) ppdu.symbols.push_back(ltf_symbol());

  // SIG field: BPSK rate 1/2, symbol indices 0..1 for pilot polarity.
  const util::BitVec sig_bits = encode_sig(ppdu.sig);
  const auto sig_syms =
      encode_field(sig_bits, Modulation::kBpsk, CodeRate::kHalf, 0);
  WITAG_ENSURE(sig_syms.size() == kSigSymbols);
  ppdu.symbols.insert(ppdu.symbols.end(), sig_syms.begin(), sig_syms.end());

  // DATA field: service + PSDU + tail, padded to whole symbols, scrambled
  // (with the tail re-zeroed so the decoder's trellis terminates).
  const std::size_t n_sym = data_symbols_for(psdu.size(), m);
  const std::size_t n_bits = n_sym * m.n_dbps;
  util::BitWriter w;
  w.write(0, kServiceBits);
  w.write_bits(util::bytes_to_bits(psdu));
  w.write(0, kTailBits);
  util::BitVec data_bits = w.take();
  data_bits.resize(n_bits, 0);

  util::BitVec scrambled = scramble(data_bits, cfg.scrambler_seed);
  const std::size_t tail_at = kServiceBits + 8 * psdu.size();
  std::fill_n(scrambled.begin() + static_cast<std::ptrdiff_t>(tail_at),
              kTailBits, std::uint8_t{0});

  const auto data_syms =
      encode_field(scrambled, m.modulation, m.rate, kSigSymbols);
  ppdu.n_data_symbols = data_syms.size();
  ppdu.symbols.insert(ppdu.symbols.end(), data_syms.begin(), data_syms.end());
  return ppdu;
}

RxResult receive(std::span<const FreqSymbol> symbols, const RxConfig& cfg) {
  BatchDecoder decoder;
  return decoder.decode_one(symbols, cfg);
}

util::CxVec to_samples(const TxPpdu& ppdu) {
  util::CxVec samples;
  samples.reserve(ppdu.symbols.size() * kSamplesPerSymbol);
  for (const FreqSymbol& sym : ppdu.symbols) {
    const util::CxVec block = to_time(sym);
    samples.insert(samples.end(), block.begin(), block.end());
  }
  return samples;
}

RxResult receive_samples(std::span<const util::Cx> samples,
                         const RxConfig& cfg) {
  WITAG_REQUIRE(samples.size() % kSamplesPerSymbol == 0);
  std::vector<FreqSymbol> symbols;
  symbols.reserve(samples.size() / kSamplesPerSymbol);
  for (std::size_t off = 0; off < samples.size(); off += kSamplesPerSymbol) {
    symbols.push_back(from_time(samples.subspan(off, kSamplesPerSymbol)));
  }
  return receive(symbols, cfg);
}

}  // namespace witag::phy
