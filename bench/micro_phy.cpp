// Microbenchmarks (google-benchmark) for the PHY/MAC/crypto substrates
// and the end-to-end session round — the costs that bound how fast the
// experiment harness can simulate.
#include <benchmark/benchmark.h>

#include <string_view>
#include <vector>

#include "mac/aes.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "util/cli.hpp"
#include "phy/batch.hpp"
#include "phy/channel_est.hpp"
#include "phy/convolutional.hpp"
#include "phy/fft.hpp"
#include "phy/interleaver.hpp"
#include "phy/ofdm.hpp"
#include "phy/ppdu.hpp"
#include "phy/scrambler.hpp"
#include "phy/simd.hpp"
#include "phy/viterbi.hpp"
#include "tag/envelope.hpp"
#include "util/crc.hpp"
#include "util/rng.hpp"
#include "witag/rateless.hpp"
#include "witag/session.hpp"

namespace {

using namespace witag;

// The 64-point transform (one OFDM symbol; the tag's envelope render
// is its one production caller) vs the reference that re-derives its
// twiddles per call. Both share identical input so the ratio is the
// plan's win; the obs reporter below exports each ns/op into the
// metrics JSON, which is how bench/BENCH_phy.json pins the baseline.
util::CxVec fft_bench_input() {
  util::Rng rng(1);
  util::CxVec data(64);
  for (auto& x : data) x = rng.complex_normal(1.0);
  return data;
}

void BM_Fft64Radix4(benchmark::State& state) {
  util::CxVec data = fft_bench_input();
  for (auto _ : state) {
    phy::fft_inplace(data);
    benchmark::DoNotOptimize(data.data());
  }
}
BENCHMARK(BM_Fft64Radix4);

void BM_Fft64Reference(benchmark::State& state) {
  util::CxVec data = fft_bench_input();
  for (auto _ : state) {
    phy::detail::fft_reference_inplace(data, /*inverse=*/false);
    benchmark::DoNotOptimize(data.data());
  }
}
BENCHMARK(BM_Fft64Reference);

void BM_ViterbiPerKilobit(benchmark::State& state) {
  util::Rng rng(2);
  util::BitVec info = rng.bits(1000);
  info.insert(info.end(), 6, 0);
  const util::BitVec coded = phy::convolutional_encode(info);
  std::vector<double> llrs(coded.size());
  for (std::size_t i = 0; i < coded.size(); ++i) {
    llrs[i] = coded[i] ? -4.0 : 4.0;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(phy::viterbi_decode(llrs));
  }
}
BENCHMARK(BM_ViterbiPerKilobit);

// Optimized (butterfly trellis + reusable workspace, zero steady-state
// allocations) vs reference Viterbi across the decode sizes the
// simulator sees: 48 info bits (one SIG field), 192 (one short MPDU)
// and 1536 (a dense A-MPDU data field). Shared inputs per size so the
// ratio isolates the kernel rewrite; the regression gate pins the
// optimized gauges (see tools/bench_compare).
std::vector<double> viterbi_bench_llrs(std::size_t n_info) {
  util::Rng rng(2);
  util::BitVec info = rng.bits(n_info - 6);
  info.insert(info.end(), 6, 0);
  const util::BitVec coded = phy::convolutional_encode(info);
  std::vector<double> llrs(coded.size());
  for (std::size_t i = 0; i < coded.size(); ++i) {
    llrs[i] = coded[i] ? -4.0 : 4.0;
  }
  return llrs;
}

template <std::size_t N>
void BM_ViterbiOptimized(benchmark::State& state) {
  const std::vector<double> llrs = viterbi_bench_llrs(N);
  phy::ViterbiWorkspace ws;
  util::BitVec bits;
  for (auto _ : state) {
    phy::viterbi_decode(llrs, ws, bits);
    benchmark::DoNotOptimize(bits.data());
  }
}
void BM_Viterbi48(benchmark::State& state) { BM_ViterbiOptimized<48>(state); }
void BM_Viterbi192(benchmark::State& state) { BM_ViterbiOptimized<192>(state); }
void BM_Viterbi1536(benchmark::State& state) {
  BM_ViterbiOptimized<1536>(state);
}
BENCHMARK(BM_Viterbi48);
BENCHMARK(BM_Viterbi192);
BENCHMARK(BM_Viterbi1536);

template <std::size_t N>
void BM_ViterbiRef(benchmark::State& state) {
  const std::vector<double> llrs = viterbi_bench_llrs(N);
  for (auto _ : state) {
    benchmark::DoNotOptimize(phy::detail::viterbi_reference(llrs));
  }
}
void BM_Viterbi48Reference(benchmark::State& state) {
  BM_ViterbiRef<48>(state);
}
void BM_Viterbi192Reference(benchmark::State& state) {
  BM_ViterbiRef<192>(state);
}
void BM_Viterbi1536Reference(benchmark::State& state) {
  BM_ViterbiRef<1536>(state);
}
BENCHMARK(BM_Viterbi48Reference);
BENCHMARK(BM_Viterbi192Reference);
BENCHMARK(BM_Viterbi1536Reference);

// Viterbi with the ACS kernel pinned to the best tier this CPU offers
// (AVX2 on CI), over the dense A-MPDU size. BM_Viterbi1536 above runs
// whatever tier the environment dispatches (same thing by default, but
// WITAG_SIMD can demote it); this gauge pins the vector kernel itself.
void BM_ViterbiAcsSimd(benchmark::State& state) {
  const std::vector<double> llrs = viterbi_bench_llrs(1536);
  phy::ViterbiWorkspace ws;
  util::BitVec bits;
  const phy::simd::ScopedTier pin(phy::simd::detect_best_tier());
  for (auto _ : state) {
    phy::viterbi_decode(llrs, ws, bits);
    benchmark::DoNotOptimize(bits.data());
  }
}
BENCHMARK(BM_ViterbiAcsSimd);

// One decode at the length of a fig5 round's data field: 64 subframes
// at MCS 5 make a 6656-byte PSDU, so 16 service + 53 248 PSDU + 6 tail
// = 53 270 info bits. The sizes above keep their decisions in L1; this
// one carries a real round's decision memory (8 B per step). Unpinned.
void BM_ViterbiAmpdu(benchmark::State& state) {
  const std::vector<double> llrs = viterbi_bench_llrs(53'270);
  phy::ViterbiWorkspace ws;
  util::BitVec bits;
  for (auto _ : state) {
    phy::viterbi_decode(llrs, ws, bits);
    benchmark::DoNotOptimize(bits.data());
  }
}
BENCHMARK(BM_ViterbiAmpdu);

// Equalizer over one OFDM data symbol (52 subcarriers + 4 pilots): the
// separable real-arithmetic loop against the original std::complex
// division loop (per-point __divdc3 calls). The equalizer has no vector
// kernel; the Scalar suffix names the gauge pinned in BENCH_phy.json.
void equalize_bench_inputs(phy::FreqSymbol& rx, phy::ChannelEstimate& est) {
  util::Rng rng(9);
  est = phy::ChannelEstimate{};
  for (const int sc : phy::data_subcarriers()) {
    const unsigned bin = phy::bin_index(sc);
    est.h[bin] = rng.complex_normal(1.0);
    rx[bin] = rng.complex_normal(1.0);
  }
  for (const int sc : phy::pilot_subcarriers()) {
    const unsigned bin = phy::bin_index(sc);
    est.h[bin] = rng.complex_normal(1.0);
    rx[bin] = rng.complex_normal(1.0);
  }
  est.noise_var = 0.01;
  est.mean_gain = 1.0;
}

void BM_EqualizeScalar(benchmark::State& state) {
  phy::FreqSymbol rx{};
  phy::ChannelEstimate est;
  equalize_bench_inputs(rx, est);
  phy::EqualizedSymbol out;
  for (auto _ : state) {
    phy::equalize_into(rx, est, 1, /*cpe_correction=*/true, out);
    benchmark::DoNotOptimize(out.points.data());
  }
}
BENCHMARK(BM_EqualizeScalar);

void BM_EqualizeReference(benchmark::State& state) {
  phy::FreqSymbol rx{};
  phy::ChannelEstimate est;
  equalize_bench_inputs(rx, est);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        phy::detail::equalize_reference(rx, est, 1, /*cpe_correction=*/true));
  }
}
BENCHMARK(BM_EqualizeReference);

// LLR deinterleave over one 64-QAM symbol (312 LLRs, the widest map),
// a plain gather loop; the Scalar suffix names the pinned gauge.
std::vector<double> deinterleave_bench_llrs() {
  util::Rng rng(10);
  std::vector<double> llrs(phy::kDataSubcarriers *
                           phy::bits_per_symbol(phy::Modulation::kQam64));
  for (auto& v : llrs) v = rng.uniform(-20.0, 20.0);
  return llrs;
}

void BM_DeinterleaveScalar(benchmark::State& state) {
  const std::vector<double> llrs = deinterleave_bench_llrs();
  std::vector<double> out;
  for (auto _ : state) {
    phy::deinterleave_llrs_into(llrs, phy::Modulation::kQam64, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_DeinterleaveScalar);

// Table-driven (byte-at-a-time keystream) vs bit-serial scrambler over
// one max-rate data field's worth of bits.
void BM_Scramble(benchmark::State& state) {
  util::Rng rng(6);
  const util::BitVec bits = rng.bits(4096);
  for (auto _ : state) {
    benchmark::DoNotOptimize(phy::scramble(bits, 0x5D));
  }
}
BENCHMARK(BM_Scramble);

void BM_ScrambleReference(benchmark::State& state) {
  util::Rng rng(6);
  const util::BitVec bits = rng.bits(4096);
  for (auto _ : state) {
    benchmark::DoNotOptimize(phy::detail::scramble_reference(bits, 0x5D));
  }
}
BENCHMARK(BM_ScrambleReference);

// Slicing-by-8 vs byte-at-a-time CRC-32 over one 3328-byte A-MPDU.
void BM_Crc32(benchmark::State& state) {
  util::Rng rng(7);
  const util::ByteVec data = rng.bytes(3328);
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::crc32(data));
  }
}
BENCHMARK(BM_Crc32);

void BM_Crc32Reference(benchmark::State& state) {
  util::Rng rng(7);
  const util::ByteVec data = rng.bytes(3328);
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::crc32_final(
        util::detail::crc32_update_bytewise(util::crc32_init(), data)));
  }
}
BENCHMARK(BM_Crc32Reference);

void BM_PpduTransmit(benchmark::State& state) {
  util::Rng rng(3);
  const util::ByteVec psdu = rng.bytes(3328);  // 64 x 52-byte subframes
  phy::TxConfig cfg;
  cfg.mcs_index = 5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(phy::transmit(psdu, cfg));
  }
}
BENCHMARK(BM_PpduTransmit);

void BM_PpduReceive(benchmark::State& state) {
  util::Rng rng(4);
  const util::ByteVec psdu = rng.bytes(3328);
  phy::TxConfig cfg;
  cfg.mcs_index = 5;
  const phy::TxPpdu ppdu = phy::transmit(psdu, cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(phy::receive(ppdu.symbols, {}));
  }
}
BENCHMARK(BM_PpduReceive);

// Full PPDU decode through a persistent BatchDecoder — the Session's
// steady state. BM_PpduReceive above pays per-call decoder construction
// and is the comparison point.
void BM_PpduDecode(benchmark::State& state) {
  util::Rng rng(4);
  const util::ByteVec psdu = rng.bytes(3328);
  phy::TxConfig cfg;
  cfg.mcs_index = 5;
  const phy::TxPpdu ppdu = phy::transmit(psdu, cfg);
  phy::BatchDecoder decoder;
  for (auto _ : state) {
    benchmark::DoNotOptimize(decoder.decode_one(ppdu.symbols, {}).psdu.data());
  }
}
BENCHMARK(BM_PpduDecode);

void BM_AesBlock(benchmark::State& state) {
  const mac::AesKey key{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
  const mac::Aes128 aes(key);
  mac::AesBlock block{};
  for (auto _ : state) {
    block = aes.encrypt(block);
    benchmark::DoNotOptimize(block.data());
  }
}
BENCHMARK(BM_AesBlock);

void BM_EnvelopeDetector(benchmark::State& state) {
  util::Rng rng(5);
  util::CxVec samples(16000);  // ~0.8 ms at 20 Msps
  for (auto& x : samples) x = rng.complex_normal(1.0);
  tag::EnvelopeConfig cfg;
  tag::EnvelopeDetector det(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(det.process(samples));
  }
}
BENCHMARK(BM_EnvelopeDetector);

// LT fountain layer (witag/rateless): droplet stream generation and the
// peeling decode, the per-delivery costs the rateless data plane adds
// on top of the session round. The peel bench feeds coded droplets only
// (systematic prefix withheld) so the ripple cascade actually runs.
void BM_LtEncode(benchmark::State& state) {
  util::Rng rng(7);
  const util::ByteVec payload = rng.bytes(32);  // K = 17 symbols
  const core::LtDropletSource source(payload, 0xBE7Cull);
  for (auto _ : state) {
    benchmark::DoNotOptimize(source.stream(64));
  }
}
BENCHMARK(BM_LtEncode);

void BM_LtPeel(benchmark::State& state) {
  util::Rng rng(8);
  const util::ByteVec payload = rng.bytes(32);
  const std::uint64_t seed = 0xBE7Cull;
  const core::LtDropletSource source(payload, seed);
  const core::RatelessConfig rcfg;
  const std::uint8_t salt = core::rateless_salt(seed);
  std::vector<core::DecodedDroplet> droplets;
  core::ErasedBits stream;
  stream.append(source.stream(256));
  std::size_t offset = source.k() * core::droplet_frame_bits(rcfg);
  while (auto d = core::decode_droplet_frame(stream, offset, salt, rcfg)) {
    offset = d->next_offset;
    droplets.push_back(std::move(*d));
  }
  for (auto _ : state) {
    core::LtDecoder decoder(payload.size(), seed);
    for (const auto& d : droplets) {
      if (decoder.complete()) break;
      decoder.add(d.seq, d.data);
    }
    benchmark::DoNotOptimize(decoder.complete());
  }
}
BENCHMARK(BM_LtPeel);

void BM_SessionRound(benchmark::State& state) {
  auto cfg = core::los_testbed_config(util::Meters{4.0}, 6);
  core::Session session(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.run_round());
  }
}
BENCHMARK(BM_SessionRound);

// Console output as usual, plus one obs gauge per benchmark
// (`bench.<name>.ns_per_op`) so `--metrics-out FILE` captures the run as
// a machine-readable baseline (see bench/BENCH_phy.json).
class ObsReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      obs::gauge("bench." + run.benchmark_name() + ".ns_per_op")
          .set(run.GetAdjustedRealTime());
    }
    ConsoleReporter::ReportRuns(runs);
  }
};

}  // namespace

int main(int argc, char** argv) {
  // Split the standard obs flags (see util/cli.hpp) off argv before
  // google-benchmark sees it — it rejects flags it does not know.
  std::vector<char*> bench_argv{argv[0]};
  std::vector<const char*> obs_argv{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--trace-out" || arg == "--metrics-out" ||
        arg == "--no-metrics") {
      obs_argv.push_back(argv[i]);
      if (arg != "--no-metrics" && i + 1 < argc) obs_argv.push_back(argv[++i]);
    } else {
      bench_argv.push_back(argv[i]);
    }
  }
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) {
    return 1;
  }

  const witag::util::Args args(static_cast<int>(obs_argv.size()),
                               obs_argv.data());
  witag::obs::RunScope obs_run("micro_phy", args);
  ObsReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
