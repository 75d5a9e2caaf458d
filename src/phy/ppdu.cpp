#include "phy/ppdu.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>

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

// Where coded bit k of one OFDM symbol ends up after the interleaver and
// the mapper: point `point` (0..51), bit `shift` of its LSB-first index
// into constellation_points. Derived from interleave_map, so it is the
// interleave → map_bits composition, one lookup per coded bit.
struct CodedSlot {
  std::uint8_t point = 0;
  std::uint8_t shift = 0;
};

struct SlotTable {
  unsigned n_cbps = 0;
  std::array<CodedSlot, kMaxCodedBitsPerSymbol> slots{};
};

SlotTable make_slot_table(Modulation mod) {
  const unsigned n_bpsc = bits_per_symbol(mod);
  SlotTable t;
  t.n_cbps = kDataSubcarriers * n_bpsc;
  const std::vector<std::size_t> map = interleave_map(t.n_cbps, n_bpsc);
  for (unsigned k = 0; k < t.n_cbps; ++k) {
    t.slots[k] = {static_cast<std::uint8_t>(map[k] / n_bpsc),
                  static_cast<std::uint8_t>(map[k] % n_bpsc)};
  }
  return t;
}

const SlotTable& slot_table(Modulation mod) {
  static const std::array<SlotTable, 4> kTables{
      make_slot_table(Modulation::kBpsk), make_slot_table(Modulation::kQpsk),
      make_slot_table(Modulation::kQam16), make_slot_table(Modulation::kQam64)};
  return kTables[static_cast<std::size_t>(mod)];
}

// Encodes a field of n_sym OFDM symbols in one pass and appends them to
// `out`: each uncoded bit from `next_bit` goes through the encoder LUT,
// the puncture pattern (wrapping index) and the slot table into its
// point's constellation index, and each full symbol is mapped and
// assembled. `next_bit` must yield n_sym * n_dbps bits.
// `first_symbol_index` sets pilot polarity.
template <typename NextBit>
void transmit_field(NextBit&& next_bit, std::size_t n_sym, Modulation mod,
                    CodeRate rate, std::size_t first_symbol_index,
                    std::vector<FreqSymbol>& out) {
  const SlotTable& table = slot_table(mod);
  const std::span<const std::uint8_t> pattern = puncture_pattern(rate);
  const std::size_t kept = static_cast<std::size_t>(
      std::count(pattern.begin(), pattern.end(), std::uint8_t{1}));
  // A symbol holds whole puncture periods, so it ends on a pair boundary
  // with the pattern index back at 0.
  WITAG_ENSURE(table.n_cbps % kept == 0);
  const std::span<const util::Cx> constellation = constellation_points(mod);

  std::uint32_t shift = 0;  // encoder register, as in convolutional_encode
  std::size_t pi = 0;
  for (std::size_t s = 0; s < n_sym; ++s) {
    std::array<std::uint8_t, kDataSubcarriers> index{};
    const auto put = [&](unsigned k, unsigned bit) {
      const CodedSlot slot = table.slots[k];
      index[slot.point] =
          static_cast<std::uint8_t>(index[slot.point] | (bit << slot.shift));
    };
    for (unsigned k = 0; k < table.n_cbps;) {
      shift = (shift >> 1) | (static_cast<std::uint32_t>(next_bit() & 1u) << 6);
      const unsigned ab = kEncoderLut[shift];
      if (pattern[pi]) put(k++, ab & 1u);
      pi = (pi + 1 == pattern.size()) ? 0 : pi + 1;
      if (pattern[pi]) put(k++, ab >> 1);
      pi = (pi + 1 == pattern.size()) ? 0 : pi + 1;
    }
    std::array<util::Cx, kDataSubcarriers> points;
    for (std::size_t p = 0; p < kDataSubcarriers; ++p) {
      points[p] = constellation[index[p]];
    }
    out.push_back(assemble_data_symbol(points, first_symbol_index + s));
  }
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
  WITAG_REQUIRE(cfg.scrambler_seed >= 1 && cfg.scrambler_seed <= 127);
  const McsParams& m = mcs(cfg.mcs_index);
  const std::size_t n_sym = data_symbols_for(psdu.size(), m);

  TxPpdu ppdu;
  ppdu.sig = HtSig{cfg.mcs_index, psdu.size()};
  ppdu.symbols.reserve(kHeaderSlots + n_sym);

  // Preamble.
  ppdu.symbols.push_back(stf_symbol());
  for (std::size_t i = 0; i < kLtfSlots; ++i) ppdu.symbols.push_back(ltf_symbol());

  // SIG field: BPSK rate 1/2, symbol indices 0..1 for pilot polarity.
  const util::BitVec sig_bits = encode_sig(ppdu.sig);
  std::size_t sig_at = 0;
  transmit_field([&] { return sig_bits[sig_at++]; }, kSigSymbols,
                 Modulation::kBpsk, CodeRate::kHalf, 0, ppdu.symbols);
  WITAG_ENSURE(sig_at == sig_bits.size());

  // DATA field: service + PSDU + tail, padded to whole symbols, scrambled
  // (with the tail re-zeroed so the decoder's trellis terminates). Stream
  // byte b holds bits 8b..8b+7 LSB-first: bytes 0..1 are the service
  // field, the PSDU follows byte-aligned, and the low kTailBits of the
  // byte after it are the tail.
  const std::size_t tail_byte = kServiceBits / 8 + psdu.size();
  std::uint8_t state = cfg.scrambler_seed;
  std::size_t byte_at = 0;
  unsigned cur = 0;
  unsigned left = 0;
  const auto next_data_bit = [&] {
    if (left == 0) {
      const std::size_t b = byte_at++;
      const std::uint8_t plain =
          (b >= kServiceBits / 8 && b < tail_byte) ? psdu[b - kServiceBits / 8]
                                                   : std::uint8_t{0};
      cur = scramble_byte(plain, state);
      if (b == tail_byte) cur &= ~((1u << kTailBits) - 1u);
      left = 8;
    }
    const unsigned bit = cur & 1u;
    cur >>= 1;
    --left;
    return bit;
  };
  transmit_field(next_data_bit, n_sym, m.modulation, m.rate, kSigSymbols,
                 ppdu.symbols);
  ppdu.n_data_symbols = n_sym;
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
