// Golden reference implementations of the QNN layers (host-side, bit-exact
// specification for the generated kernels).
//
// Conventions (shared with src/kernels):
//   - activations: unsigned codes, `in_bits` wide;
//   - weights: signed two's complement, `w_bits` wide;
//   - convolution accumulates act * weight in 32 bits; for sub-byte outputs
//     the accumulator must fit in int16 (the quantization unit consumes
//     16-bit pre-activations) — the reference asserts this;
//   - sub-byte outputs re-quantize through per-channel staircase
//     thresholds; 8-bit outputs use the PULP-NN scale path
//     out = clamp((acc + bias) >> shift, 0, 255).
#pragma once

#include "qnn/tensor.hpp"
#include "qnn/thresholds.hpp"

namespace xpulp::qnn {

struct ConvSpec {
  int in_h = 16;
  int in_w = 16;
  int in_c = 32;
  int out_c = 64;
  int k_h = 3;
  int k_w = 3;
  int stride = 1;
  int pad = 1;

  unsigned in_bits = 8;   // activation code width
  unsigned w_bits = 8;    // weight width
  unsigned out_bits = 8;  // output code width

  u32 requant_shift = 8;  // 8-bit output path only

  int out_h() const { return (in_h + 2 * pad - k_h) / stride + 1; }
  int out_w() const { return (in_w + 2 * pad - k_w) / stride + 1; }
  int filter_elems() const { return k_h * k_w * in_c; }
  /// Multiply-accumulate count of the whole layer.
  u64 macs() const {
    return static_cast<u64>(out_h()) * out_w() * out_c * filter_elems();
  }

  /// The layer the paper benchmarks: 16x16x32 input, 64 3x3x32 filters.
  static ConvSpec paper_layer(unsigned bits) {
    ConvSpec s;
    s.in_bits = s.w_bits = s.out_bits = bits;
    return s;
  }

  /// A fully-connected (linear) layer — the other layer type the paper
  /// names ("convolution or linear layers", §III-A). It is the degenerate
  /// convolution with a 1x1x(in_features) input and 1x1 filters, so the
  /// conv kernels run it on the same matmul machinery (2x1 blocking: a
  /// single output "pixel").
  static ConvSpec linear(int in_features, int out_features, unsigned in_bits,
                         unsigned w_bits, unsigned out_bits) {
    ConvSpec s;
    s.in_h = s.in_w = s.k_h = s.k_w = 1;
    s.pad = 0;
    s.in_c = in_features;
    s.out_c = out_features;
    s.in_bits = in_bits;
    s.w_bits = w_bits;
    s.out_bits = out_bits;
    return s;
  }
};

/// 32-bit pre-activation (accumulator) of one output element.
i32 conv_accumulate(const Tensor& in, const FilterBank& w, const ConvSpec& s,
                    int oy, int ox, int oc);

/// Every accumulator of the layer in output (HWC) order: element
/// (oy * out_w + ox) * out_c + oc. The one full-layer reference sweep;
/// the golden outputs, the 8-bit shift and the trained thresholds all
/// derive from it.
std::vector<i32> conv_accumulators(const Tensor& in, const FilterBank& w,
                                   const ConvSpec& s);

/// Staircase re-quantization of a layer's accumulators (out_bits in {2, 4}).
Tensor requantize(const std::vector<i32>& accs, const LayerThresholds& th,
                  const ConvSpec& s);

/// The 8-bit scale/clamp re-quantization of a layer's accumulators.
Tensor requantize_u8(const std::vector<i32>& accs, const ConvSpec& s);

/// Full conv layer with staircase re-quantization (out_bits in {2, 4}).
Tensor conv2d_ref(const Tensor& in, const FilterBank& w,
                  const LayerThresholds& th, const ConvSpec& s);

/// Full conv layer with the 8-bit scale/clamp re-quantization.
Tensor conv2d_ref_u8(const Tensor& in, const FilterBank& w,
                     const ConvSpec& s);

/// Fully-connected layer: in is flattened (1 x 1 x N); weights are `count`
/// filters of shape 1 x 1 x N. Staircase re-quantization.
Tensor linear_ref(const Tensor& in, const FilterBank& w,
                  const LayerThresholds& th);

/// 2x2 max pooling (stride 2) on codes.
Tensor maxpool2x2_ref(const Tensor& in);

/// 2x2 average pooling (stride 2), cascaded pairwise averages (pv.avgu
/// semantics): ((a+b)>>1 + (c+d)>>1) >> 1.
Tensor avgpool2x2_ref(const Tensor& in);

/// ReLU on signed codes (used by tests of pv.max.sc-based kernels).
Tensor relu_ref(const Tensor& in);

/// The im2col column for output pixel (oy, ox): k_h*k_w*in_c activation
/// codes in kernel-stream order, zero-padded at borders.
std::vector<i32> im2col_ref(const Tensor& in, const ConvSpec& s, int oy,
                            int ox);

}  // namespace xpulp::qnn
