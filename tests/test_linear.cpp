// Fully-connected layer kernels vs the golden model.
#include <gtest/gtest.h>

#include "kernels/conv_layer.hpp"
#include "sim_test_util.hpp"

namespace xpulp::kernels {
namespace {

struct LinCase {
  int in_f, out_f;
  unsigned bits;
  ConvVariant v;
  bool ext;
};

ConvLayerData random_linear(int in_f, int out_f, unsigned bits, u64 seed) {
  return ConvLayerData::random(
      qnn::ConvSpec::linear(in_f, out_f, bits, bits, bits), seed);
}

class Linear : public ::testing::TestWithParam<LinCase> {};

TEST_P(Linear, BitExact) {
  const auto [in_f, out_f, bits, v, ext] = GetParam();
  const auto data = random_linear(in_f, out_f, bits, 0x11 + bits);
  const auto cfg =
      ext ? sim::CoreConfig::extended() : sim::CoreConfig::ri5cy();
  const auto res = run_conv_layer(data, v, cfg);
  const auto gold = test::linear_golden(data);
  ASSERT_EQ(res.output.shape(), (qnn::Shape{1, 1, out_f}));
  for (int i = 0; i < gold.elems(); ++i) {
    ASSERT_EQ(res.output.flat(i), gold.flat(i)) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Linear,
    ::testing::Values(
        LinCase{64, 10, 4, ConvVariant::kXpulpNN_HwQ, true},
        LinCase{64, 10, 4, ConvVariant::kXpulpNN_SwQ, true},
        LinCase{64, 10, 4, ConvVariant::kXpulpV2_Sub, false},
        LinCase{128, 16, 2, ConvVariant::kXpulpNN_HwQ, true},
        LinCase{128, 16, 2, ConvVariant::kXpulpV2_Sub, false},
        LinCase{32, 8, 8, ConvVariant::kXpulpV2_8b, true},
        LinCase{32, 8, 8, ConvVariant::kXpulpV2_8b, false},
        LinCase{256, 32, 4, ConvVariant::kXpulpNN_HwQ, true}),
    [](const ::testing::TestParamInfo<LinCase>& info) {
      return "i" + std::to_string(info.param.in_f) + "_o" +
             std::to_string(info.param.out_f) + "_b" +
             std::to_string(info.param.bits) + "_v" +
             std::to_string(static_cast<int>(info.param.v)) +
             (info.param.ext ? "_ext" : "_base");
    });

TEST(Linear, SpecIsTheDegenerateConv) {
  const auto s = qnn::ConvSpec::linear(96, 10, 4, 4, 2);
  EXPECT_EQ(s.out_h(), 1);
  EXPECT_EQ(s.out_w(), 1);
  EXPECT_EQ(s.filter_elems(), 96);
  EXPECT_EQ(s.macs(), 96u * 10u);
  EXPECT_EQ(s.in_c, 96);
  EXPECT_EQ(s.out_c, 10);
  EXPECT_EQ(s.in_bits, 4u);
  EXPECT_EQ(s.w_bits, 4u);
  EXPECT_EQ(s.out_bits, 2u);
}

TEST(Linear, MatchesLinearRef) {
  // The linear golden path and the conv golden path agree on a 1x1 layer.
  const auto data = random_linear(64, 8, 4, 3);
  const auto via_linear = test::linear_golden(data);
  const auto via_conv = data.golden();
  EXPECT_EQ(via_linear, via_conv);
}

TEST(Linear, SubByteSpeedupHoldsForFcLayers) {
  const auto data = random_linear(512, 32, 2, 5);
  const auto ext = run_conv_layer(data, ConvVariant::kXpulpNN_HwQ,
                                  sim::CoreConfig::extended());
  const auto base = run_conv_layer(data, ConvVariant::kXpulpV2_Sub,
                                   sim::CoreConfig::ri5cy());
  EXPECT_GT(static_cast<double>(base.perf.cycles) /
                static_cast<double>(ext.perf.cycles),
            4.0);
}

}  // namespace
}  // namespace xpulp::kernels
