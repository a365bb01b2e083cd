// Golden reference layers: internal consistency (im2col x filter ==
// accumulate == the full-layer sweep), pooling/ReLU semantics, the
// quantile threshold builder, and the layer-data factories' invariants.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "kernels/conv_layer.hpp"
#include "qnn/ref_layers.hpp"

namespace xpulp::qnn {
namespace {

ConvSpec small_spec(unsigned bits) {
  ConvSpec s;
  s.in_h = s.in_w = 6;
  s.in_c = 8;
  s.out_c = 4;
  s.in_bits = s.w_bits = s.out_bits = bits;
  return s;
}

/// Channel `oc`'s accumulators in output-position order.
std::vector<i32> channel_accs(const kernels::ConvLayerData& d, int oc) {
  std::vector<i32> accs;
  for (int oy = 0; oy < d.spec.out_h(); ++oy) {
    for (int ox = 0; ox < d.spec.out_w(); ++ox) {
      accs.push_back(conv_accumulate(d.input, d.weights, d.spec, oy, ox, oc));
    }
  }
  return accs;
}

TEST(RefLayers, Im2colMatchesAccumulate) {
  // Every position of a padded conv, a stride-2 conv and a linear layer:
  // im2col x filter == conv_accumulate == the full-layer sweep (HWC order).
  ConvSpec strided = small_spec(4);
  strided.in_h = strided.in_w = 7;
  strided.stride = 2;
  for (const ConvSpec& s :
       {small_spec(4), strided, ConvSpec::linear(24, 5, 4, 4, 4)}) {
    auto data = kernels::ConvLayerData::random(s, 1);
    const std::vector<i32> accs =
        conv_accumulators(data.input, data.weights, s);
    ASSERT_EQ(accs.size(),
              static_cast<size_t>(s.out_h() * s.out_w() * s.out_c));
    size_t next = 0;
    for (int oy = 0; oy < s.out_h(); ++oy) {
      for (int ox = 0; ox < s.out_w(); ++ox) {
        const auto col = im2col_ref(data.input, s, oy, ox);
        ASSERT_EQ(static_cast<int>(col.size()), s.filter_elems());
        for (int oc = 0; oc < s.out_c; ++oc) {
          i32 dot = 0;
          for (int i = 0; i < s.filter_elems(); ++i) {
            dot += col[static_cast<size_t>(i)] * data.weights.flat(oc, i);
          }
          const i32 acc =
              conv_accumulate(data.input, data.weights, s, oy, ox, oc);
          EXPECT_EQ(dot, acc);
          EXPECT_EQ(accs[next++], acc);
        }
      }
    }
  }
}

TEST(RefLayers, Im2colZeroPadsBorders) {
  const ConvSpec s = small_spec(4);
  Tensor in({s.in_h, s.in_w, s.in_c});
  for (int i = 0; i < in.elems(); ++i) in.flat(i) = 7;
  const auto corner = im2col_ref(in, s, 0, 0);
  // Top-left 3x3 window: first row and first column of the window are pad.
  for (int c = 0; c < s.in_c; ++c) {
    EXPECT_EQ(corner[static_cast<size_t>(c)], 0);                    // (ky=0,kx=0)
    EXPECT_EQ(corner[static_cast<size_t>(3 * s.in_c + c)], 0);       // (1,0)
    EXPECT_EQ(corner[static_cast<size_t>(4 * s.in_c + c)], 7);       // (1,1)
  }
}

TEST(RefLayers, OutputGeometry) {
  ConvSpec s = small_spec(8);
  EXPECT_EQ(s.out_h(), 6);
  EXPECT_EQ(s.out_w(), 6);
  s.pad = 0;
  EXPECT_EQ(s.out_h(), 4);
  s.stride = 2;
  EXPECT_EQ(s.out_h(), 2);
  EXPECT_EQ(small_spec(8).macs(),
            static_cast<u64>(6) * 6 * 4 * 3 * 3 * 8);
}

TEST(RefLayers, ConvRefAppliesPerChannelThresholds) {
  const ConvSpec s = small_spec(2);
  auto data = kernels::ConvLayerData::random(s, 2);
  const Tensor out = conv2d_ref(data.input, data.weights, data.thresholds, s);
  for (int oy = 0; oy < s.out_h(); ++oy) {
    for (int ox = 0; ox < s.out_w(); ++ox) {
      for (int oc = 0; oc < s.out_c; ++oc) {
        const i32 acc = conv_accumulate(data.input, data.weights, s, oy, ox, oc);
        EXPECT_EQ(out.at(oy, ox, oc),
                  static_cast<i32>(data.thresholds.channel(oc).quantize(acc)));
      }
    }
  }
}

TEST(RefLayers, Conv8bShiftClamp) {
  ConvSpec s = small_spec(8);
  auto data = kernels::ConvLayerData::random(s, 3);
  s = data.spec;  // generator picked the shift
  const Tensor out = conv2d_ref_u8(data.input, data.weights, s);
  for (int i = 0; i < out.elems(); ++i) {
    EXPECT_GE(out.flat(i), 0);
    EXPECT_LE(out.flat(i), 255);
  }
}

TEST(RefLayers, MaxPool) {
  Tensor in({2, 2, 2});
  in.at(0, 0, 0) = 1; in.at(0, 1, 0) = 9; in.at(1, 0, 0) = 3; in.at(1, 1, 0) = 4;
  in.at(0, 0, 1) = 5; in.at(0, 1, 1) = 2; in.at(1, 0, 1) = 8; in.at(1, 1, 1) = 0;
  const Tensor out = maxpool2x2_ref(in);
  EXPECT_EQ(out.shape(), (Shape{1, 1, 2}));
  EXPECT_EQ(out.at(0, 0, 0), 9);
  EXPECT_EQ(out.at(0, 0, 1), 8);
}

TEST(RefLayers, AvgPoolIsCascaded) {
  Tensor in({2, 2, 1});
  in.at(0, 0, 0) = 1; in.at(0, 1, 0) = 2; in.at(1, 0, 0) = 3; in.at(1, 1, 0) = 4;
  // Cascaded: ((1+2)>>1 + (3+4)>>1) >> 1 = (1 + 3) >> 1 = 2.
  EXPECT_EQ(avgpool2x2_ref(in).at(0, 0, 0), 2);
}

TEST(RefLayers, Relu) {
  Tensor in({1, 1, 4});
  in.flat(0) = -3; in.flat(1) = 0; in.flat(2) = 5; in.flat(3) = -1;
  const Tensor out = relu_ref(in);
  EXPECT_EQ(out.flat(0), 0);
  EXPECT_EQ(out.flat(1), 0);
  EXPECT_EQ(out.flat(2), 5);
  EXPECT_EQ(out.flat(3), 0);
}

TEST(RefLayers, LinearLayer) {
  Tensor in({1, 1, 4});
  for (int i = 0; i < 4; ++i) in.flat(i) = i + 1;
  FilterBank w(2, {1, 1, 4});
  for (int i = 0; i < 4; ++i) {
    w.flat(0, i) = 1;
    w.flat(1, i) = (i % 2) ? -1 : 1;
  }
  // acc0 = 10, acc1 = 1-2+3-4 = -2.
  std::vector<Thresholds> th;
  th.push_back(Thresholds(2, {0, 5, 20}));
  th.push_back(Thresholds(2, {-10, -5, 0}));
  const LayerThresholds lt(2, std::move(th));
  const Tensor out = linear_ref(in, w, lt);
  EXPECT_EQ(out.at(0, 0, 0), 2);  // 10 >= 0 and >= 5, but < 20
  EXPECT_EQ(out.at(0, 0, 1), 2);  // -2 >= -10 and >= -5, but < 0
}

TEST(RefLayers, DataGeneratorInvariants) {
  for (unsigned bits : {2u, 4u}) {
    const ConvSpec s = small_spec(bits);
    auto data = kernels::ConvLayerData::random(s, 17);
    const i32 amax = static_cast<i32>((1u << bits) - 1);
    for (int i = 0; i < data.input.elems(); ++i) {
      EXPECT_GE(data.input.flat(i), 0);
      EXPECT_LE(data.input.flat(i), amax);
    }
    const i32 wlim = 1 << (bits - 1);
    for (const i32 w : data.weights.data()) {
      EXPECT_GE(w, -wlim);
      EXPECT_LT(w, wlim);
    }
    EXPECT_EQ(data.thresholds.channels(), s.out_c);
    for (int oc = 0; oc < s.out_c; ++oc) {
      EXPECT_EQ(data.thresholds.channel(oc).sorted(),
                quantile_thresholds(channel_accs(data, oc), bits).sorted());
    }
    // The golden output uses every code level somewhere (quantile-derived
    // thresholds guarantee balanced codes).
    const Tensor g = data.golden();
    std::vector<int> hist(1u << bits, 0);
    for (int i = 0; i < g.elems(); ++i) hist[static_cast<size_t>(g.flat(i))]++;
    for (const int h : hist) EXPECT_GT(h, 0);
  }
}

TEST(RefLayers, QuantileThresholdsRiseStrictlyAndClamp) {
  // levels = 4 over n = 8: picks the 2nd, 4th and 6th smallest.
  EXPECT_EQ(quantile_thresholds({7, 1, 6, 2, 5, 3, 4, 0}, 2).sorted(),
            (std::vector<i16>{2, 4, 6}));
  // Ties are raised to keep the staircase strictly rising.
  EXPECT_EQ(quantile_thresholds({5, 5, 5, 5}, 2).sorted(),
            (std::vector<i16>{5, 6, 7}));
  // A saturated top is clamped to int16 and repeats.
  EXPECT_EQ(quantile_thresholds({32766, 32766, 32766, 32766}, 2).sorted(),
            (std::vector<i16>{32766, 32767, 32767}));
}

TEST(RefLayers, TrainedLayerCalibratesOnItsInput) {
  // 6x6 = 36 positions >= 2 * 2^4: per-channel quantiles of the input's
  // accumulators; the weights and input are random()'s and the caller's.
  for (unsigned bits : {2u, 4u}) {
    const ConvSpec s = small_spec(bits);
    const Tensor in = kernels::ConvLayerData::random(s, 6).input;
    const auto t = kernels::ConvLayerData::trained(s, 7, in);
    EXPECT_EQ(t.data.input, in);
    EXPECT_EQ(t.data.weights.data(),
              kernels::ConvLayerData::random(s, 7).weights.data());
    for (int oc = 0; oc < s.out_c; ++oc) {
      EXPECT_EQ(t.data.thresholds.channel(oc).sorted(),
                quantile_thresholds(channel_accs(t.data, oc), bits).sorted());
    }
    EXPECT_EQ(t.golden, conv2d_ref(in, t.data.weights, t.data.thresholds, s));
  }
  EXPECT_THROW(
      kernels::ConvLayerData::trained(small_spec(4), 7, Tensor({6, 6, 4})),
      SimError);
}

TEST(RefLayers, TrainedLinearLayerSharesLayerGlobalThresholds) {
  const ConvSpec s = ConvSpec::linear(32, 6, 4, 4, 4);
  const Tensor in = kernels::ConvLayerData::random(s, 8).input;
  const auto t = kernels::ConvLayerData::trained(s, 9, in);
  const std::vector<i32> accs = conv_accumulators(in, t.data.weights, s);
  for (int oc = 0; oc < s.out_c; ++oc) {
    EXPECT_EQ(t.data.thresholds.channel(oc).sorted(),
              quantile_thresholds(accs, 4).sorted());
  }
  EXPECT_EQ(t.golden, conv2d_ref(in, t.data.weights, t.data.thresholds, s));
}

TEST(RefLayers, TrainedEightBitLayerKeepsTheSeedShift) {
  const ConvSpec s = small_spec(8);
  const Tensor in = kernels::ConvLayerData::random(s, 10).input;
  const auto t = kernels::ConvLayerData::trained(s, 11, in);
  const auto r = kernels::ConvLayerData::random(s, 11);
  EXPECT_EQ(t.data.spec.requant_shift, r.spec.requant_shift);
  EXPECT_EQ(t.data.weights.data(), r.weights.data());
  EXPECT_EQ(t.golden, conv2d_ref_u8(in, r.weights, r.spec));
}

}  // namespace
}  // namespace xpulp::qnn
