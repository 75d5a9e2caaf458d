#pragma once

#include <cstddef>
#include <map>
#include <string>

#include "witag/config.hpp"

namespace perfbench {

/// Median host microseconds per call of the un-spanned round stages,
/// keyed "build_query", "receive_psdu", "subframe_outcomes", "envelope"
/// (EnvelopeDetector + Comparator) and "detect_trigger". The last two
/// are 0 unless `cfg` uses TriggerMode::kEnvelope.
std::map<std::string, double> replay_round_layers(
    const witag::core::SessionConfig& cfg, std::size_t iterations);

}  // namespace perfbench
