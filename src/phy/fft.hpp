// The 64-point FFT/IFFT of one OFDM symbol, with unitary (1/sqrt(N))
// scaling in both directions so transforms preserve signal power —
// convenient for SNR bookkeeping across the time/frequency boundary.
// Its one production caller is to_time (ofdm.hpp), which renders header
// and trigger slots for the tag's envelope detector.
//
// The transform runs against a process-wide plan (bit-reversal swap
// list + per-stage twiddle tables) built once, so the cos/sin work is
// not paid per call. The plan stores the twiddles produced by the very
// same recurrence as the reference transform, and the fused radix-4
// passes perform exactly the reference's arithmetic, so the planned
// path is bit-identical to it.
#pragma once

#include <span>

#include "util/complexvec.hpp"

namespace witag::phy {

/// In-place forward FFT. Requires exactly 64 points.
void fft_inplace(std::span<util::Cx> data);

/// In-place inverse FFT. Requires exactly 64 points.
void ifft_inplace(std::span<util::Cx> data);

namespace detail {

/// Reference transform for any power-of-two length >= 1 that re-derives
/// twiddles per call (the textbook radix-2 loop). Kept as the oracle the
/// planned transform is tested against bit for bit, and as the
/// BM_Fft64Reference micro-benchmark baseline.
void fft_reference_inplace(std::span<util::Cx> data, bool inverse);

}  // namespace detail

}  // namespace witag::phy
