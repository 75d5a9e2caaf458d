// Layer replay: times the parts of a round that run inside the
// `session.round` span but record no span of their own, by calling the
// same public entry points Session::exchange uses on frames built from
// the workload's own SessionConfig. Run with tracing off.
#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

#include "channel/geometry.hpp"
#include "channel/pathloss.hpp"
#include "mac/block_ack.hpp"
#include "mac/mac_header.hpp"
#include "mac/station.hpp"
#include "phy/batch.hpp"
#include "phy/ofdm.hpp"
#include "phy/ppdu.hpp"
#include "tag/envelope.hpp"
#include "tag/trigger.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"
#include "witag/query.hpp"
#include "witag/session.hpp"

namespace perfbench {
namespace {

using witag::util::Cx;
using witag::util::CxVec;

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

template <typename Fn>
double timed_us(Fn&& fn) {
  const double t0 = now_us();
  fn();
  return now_us() - t0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// The quiet air Session::tag_timing prepends before the PPDU.
constexpr double kIdleNoisePrefixUs = 20.0;

}  // namespace

std::map<std::string, double> replay_round_layers(
    const witag::core::SessionConfig& cfg, std::size_t iterations) {
  using namespace witag;
  // The session supplies the planned layout; its own stations stay idle.
  const core::Session session(cfg);
  const core::QueryLayout layout = session.layout();
  mac::Client client(mac::make_address(0x01), mac::make_address(0x02),
                     cfg.security);
  mac::AccessPoint ap(mac::make_address(0x02), cfg.security);
  phy::BatchDecoder decoder;

  std::vector<double> build_us;
  std::vector<core::QueryFrame> frames;
  std::vector<util::ByteVec> psdus;
  for (std::size_t i = 0; i < iterations; ++i) {
    std::optional<core::QueryFrame> frame;
    build_us.push_back(timed_us([&] {
      frame = core::build_query(layout, client, cfg.query.trigger_low_scale);
    }));
    // A clean decode recovers the A-MPDU bytes the AP would see.
    psdus.push_back(decoder.decode_one(frame->ppdu.symbols, {}).psdu);
    frames.push_back(std::move(*frame));
  }

  std::vector<double> receive_us;
  std::vector<double> outcomes_us;
  for (const auto& psdu : psdus) {
    std::optional<mac::BlockAck> ba;
    receive_us.push_back(
        timed_us([&] { ba = ap.receive_psdu(psdu).block_ack; }));
    outcomes_us.push_back(timed_us([&] {
      const auto outcomes = client.subframe_outcomes(ba);
      if (outcomes.empty()) ba.reset();
    }));
  }

  std::map<std::string, double> out = {
      {"build_query", median(build_us)},
      {"receive_psdu", median(receive_us)},
      {"subframe_outcomes", median(outcomes_us)},
      {"envelope", 0.0},
      {"detect_trigger", 0.0},
  };
  if (cfg.trigger_mode != core::TriggerMode::kEnvelope) return out;

  // The tag's view of the header + trigger region, rendered the way
  // Session::tag_timing renders it: flat client->tag gain plus detector
  // noise over a quiet prefix.
  const util::Meters d{channel::distance(cfg.client_pos, cfg.tag_pos)};
  const util::Db wall{cfg.plan.penetration_loss_db(cfg.client_pos, cfg.tag_pos)};
  const double link_amp =
      std::abs(channel::attenuate(
          channel::direct_gain(d, cfg.radio.carrier_hz), wall)) *
      std::sqrt(util::to_watts(cfg.radio.tx_power_dbm).value() / 56.0);
  const double noise_var =
      util::thermal_noise(util::kBandwidth20MHz, cfg.radio.temperature_k)
          .value() *
      util::db_to_linear(cfg.tag_detector_nf_db);
  const auto prefix = static_cast<std::size_t>(
      kIdleNoisePrefixUs * phy::kSampleRateHz / 1e6);
  util::Rng rng(cfg.seed);

  tag::EnvelopeConfig env_cfg;
  env_cfg.sample_rate_hz = util::Hertz{phy::kSampleRateHz};
  tag::TriggerConfig trig_cfg;
  trig_cfg.n_trigger_subframes = layout.n_trigger;
  trig_cfg.accept_code = static_cast<int>(cfg.tag_address);

  std::vector<double> envelope_us;
  std::vector<double> trigger_us;
  for (const auto& frame : frames) {
    const std::size_t slots = std::min(
        phy::kHeaderSlots + static_cast<std::size_t>(layout.n_trigger + 1) *
                                layout.symbols_per_subframe,
        frame.ppdu.symbols.size());
    CxVec samples;
    samples.reserve(prefix + slots * phy::kSamplesPerSymbol);
    for (std::size_t i = 0; i < prefix; ++i) {
      samples.push_back(rng.complex_normal(noise_var));
    }
    for (std::size_t s = 0; s < slots; ++s) {
      for (const Cx& x : phy::to_time(frame.ppdu.symbols[s])) {
        samples.push_back(x * frame.slot_scale[s] * link_amp +
                          rng.complex_normal(noise_var));
      }
    }
    std::vector<std::uint8_t> bits;
    envelope_us.push_back(timed_us([&] {
      tag::EnvelopeDetector detector(env_cfg);
      tag::Comparator comparator(env_cfg);
      bits = comparator.process(detector.process(samples));
    }));
    trigger_us.push_back(timed_us([&] {
      if (!tag::detect_trigger(bits, phy::kSampleRateHz, trig_cfg)) {
        bits.clear();
      }
    }));
  }
  out["envelope"] = median(envelope_us);
  out["detect_trigger"] = median(trigger_us);
  return out;
}

}  // namespace perfbench
