// Thresholding-based (staircase) quantization, paper §II-2 and Fig. 2.
//
// A Q-bit output needs 2^Q - 1 per-channel thresholds, which absorb bias
// and batch normalization. The quantized code of a 16-bit pre-activation x
// is the number of thresholds <= x (a staircase function). The optimal
// implementation is a balanced binary search; the hardware quantization
// unit and the software kernels both store the thresholds in breadth-first
// (Eytzinger) order, one comparison per tree level, MSB-first code
// construction.
//
// Memory layout per channel: 2^Q int16 slots (the 2^Q-1 tree nodes in BFS
// order, padded with one unused slot so the per-channel stride is a power
// of two) — this stride is the "hard-wired fixed offset" that lets pv.qnt
// derive the second activation's tree address.
#pragma once

#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace xpulp::qnn {

class Thresholds {
 public:
  /// Build from sorted thresholds (size must be 2^q_bits - 1, ascending).
  Thresholds(unsigned q_bits, std::vector<i16> sorted);

  /// Uniform quantizer: thresholds at step boundaries around zero-ish
  /// range; `step` > 0, `offset` shifts the staircase.
  static Thresholds uniform(unsigned q_bits, i32 step, i32 offset = 0);

  /// Random strictly-monotone thresholds within [lo, hi] for tests.
  static Thresholds random(Rng& rng, unsigned q_bits, i16 lo, i16 hi);

  unsigned q_bits() const { return q_bits_; }
  u32 levels() const { return 1u << q_bits_; }

  const std::vector<i16>& sorted() const { return sorted_; }
  /// BFS (Eytzinger) order, padded to 2^Q entries (last slot INT16_MAX).
  const std::vector<i16>& eytzinger() const { return eytzinger_; }

  /// Per-channel stride in bytes of the packed tree (2^Q int16 slots).
  u32 stride_bytes() const { return levels() * 2; }

  /// Reference staircase: code = #{ sorted_i <= x }.
  u32 quantize(i32 x) const;

 private:
  unsigned q_bits_;
  std::vector<i16> sorted_;
  std::vector<i16> eytzinger_;
};

/// Thresholds at the quantiles of a set of accumulators: what trained
/// thresholds (absorbing bias and batch normalization) look like, and a
/// staircase that uses every output code. The i-th of the 2^q_bits - 1
/// thresholds is the (i * n / 2^q_bits)-th smallest accumulator, raised
/// where needed to keep the staircase strictly rising, then clamped to
/// int16 (a saturated top may repeat). `accs` must not be empty.
Thresholds quantile_thresholds(std::vector<i32> accs, unsigned q_bits);

/// Per-output-channel threshold sets for a layer, plus serialization to the
/// guest memory layout consumed by pv.qnt and the software tree kernels.
class LayerThresholds {
 public:
  LayerThresholds() = default;
  LayerThresholds(unsigned q_bits, std::vector<Thresholds> per_channel);

  static LayerThresholds random(Rng& rng, unsigned q_bits, int channels,
                                i16 lo, i16 hi);

  unsigned q_bits() const { return q_bits_; }
  int channels() const { return static_cast<int>(per_channel_.size()); }
  const Thresholds& channel(int c) const {
    return per_channel_[static_cast<size_t>(c)];
  }
  u32 stride_bytes() const {
    return per_channel_.empty() ? 0 : per_channel_[0].stride_bytes();
  }

  /// Serialized guest image: channel c's Eytzinger tree at offset
  /// c * stride_bytes(), little-endian int16.
  std::vector<u8> serialize() const;

 private:
  unsigned q_bits_ = 0;
  std::vector<Thresholds> per_channel_;
};

}  // namespace xpulp::qnn
