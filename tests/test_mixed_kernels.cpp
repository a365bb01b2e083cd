// Mixed-precision virtual-SIMD kernel tests: the kXpulpNN_Mixed conv and
// linear kernels must be bit-exact against the reference layers for every
// mpc operand pair (8x4, 8x2, 4x2) on all three dispatch modes (reference
// interpreter, fast path, superblock), the mixed-op counters must attribute
// every dot product to the selector the kernel programmed, and the
// reserved selector must trap rather than compute garbage.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "kernels/conv_layer.hpp"
#include "sim/superblock.hpp"
#include "sim_test_util.hpp"

namespace xpulp::kernels {
namespace {

namespace r = xasm::reg;

sim::CoreConfig dispatch_cfg(bool reference, bool superblock) {
  sim::CoreConfig cfg = sim::CoreConfig::extended();
  cfg.reference_dispatch = reference;
  cfg.superblock = superblock;
  return cfg;
}

struct MixedCase {
  unsigned in_bits, w_bits, out_bits;
  int h, w, cin, cout, k, pad;
  u64 seed;
};

qnn::ConvSpec to_spec(const MixedCase& c) {
  qnn::ConvSpec s;
  s.in_h = c.h;
  s.in_w = c.w;
  s.in_c = c.cin;
  s.out_c = c.cout;
  s.k_h = s.k_w = c.k;
  s.pad = c.pad;
  s.in_bits = c.in_bits;
  s.w_bits = c.w_bits;
  s.out_bits = c.out_bits;
  return s;
}

// Geometry notes: in_c * in_bits must be word-aligned; sub-byte outputs
// need every accumulator inside int16, so those cases use 1x1 filters or
// narrow operands (4x2) where the worst-case products stay small.
std::vector<MixedCase> mixed_grid() {
  return {
      // 8-bit outputs (scale requantization): paper-shaped 3x3 stacks.
      {8, 4, 8, 6, 6, 8, 4, 3, 1, 11},
      {8, 2, 8, 6, 6, 8, 4, 3, 1, 12},
      {4, 2, 8, 6, 6, 8, 4, 3, 1, 13},
      // Sub-byte outputs (pv.qnt staircase) under the int16 constraint.
      {8, 4, 4, 4, 4, 16, 8, 1, 0, 14},
      {8, 2, 2, 4, 4, 16, 8, 1, 0, 15},
      {4, 2, 4, 6, 6, 8, 8, 3, 1, 16},
      {4, 2, 2, 6, 6, 8, 8, 3, 1, 17},
      // Odd output width: default options derive the 2x1 block.
      {4, 2, 4, 7, 7, 8, 8, 3, 1, 18},
  };
}

class MixedConv : public ::testing::TestWithParam<MixedCase> {};

TEST_P(MixedConv, BitExactOnAllDispatchModes) {
  const auto spec = to_spec(GetParam());
  const auto data = ConvLayerData::random(spec, GetParam().seed);
  const auto gold = data.golden();
  const u32 sel = mixed_sel_for(spec.in_bits, spec.w_bits);

  for (const bool reference : {true, false}) {
    for (const bool superblock : {false, true}) {
      if (reference && superblock) continue;
      const auto res = run_conv_layer(data, ConvVariant::kXpulpNN_Mixed,
                                      dispatch_cfg(reference, superblock));
      for (int i = 0; i < gold.elems(); ++i) {
        ASSERT_EQ(res.output.flat(i), gold.flat(i))
            << "ref=" << reference << " sb=" << superblock << " elem=" << i;
      }
      // Every mixed dot op must attribute to the programmed selector (and
      // only that one), and to the wide region's uniform counter.
      EXPECT_GT(res.perf.mixed_dotp_ops[sel], 0u);
      for (u32 s = 0; s < 3; ++s) {
        if (s != sel) {
          EXPECT_EQ(res.perf.mixed_dotp_ops[s], 0u);
        }
      }
      const unsigned wide_region = spec.in_bits == 8 ? 1 : 2;  // k8 / k4
      EXPECT_EQ(res.perf.dotp_ops[wide_region],
                res.perf.mixed_dotp_ops[sel]);
      // An even output width gives the 2x2-blocked inner body, which the
      // superblock engine runs through its conv macro-op under every
      // selector; odd widths (the 2x1 body) stay on the generic fused loop.
      if (superblock && spec.out_w() % 2 == 0 && sim::conv_macro_op_built()) {
        EXPECT_GT(res.superblock.macro_iterations, 0u);
      } else {
        EXPECT_EQ(res.superblock.macro_iterations, 0u);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MixedConv, ::testing::ValuesIn(mixed_grid()),
    [](const ::testing::TestParamInfo<MixedCase>& info) {
      const auto& c = info.param;
      return "a" + std::to_string(c.in_bits) + "w" + std::to_string(c.w_bits) +
             "o" + std::to_string(c.out_bits) + "_h" + std::to_string(c.h) +
             "ci" + std::to_string(c.cin) + "co" + std::to_string(c.cout) +
             "_k" + std::to_string(c.k);
    });

TEST(MixedLinear, BitExactOnAllDispatchModes) {
  struct Case {
    int in_f, out_f;
    unsigned in_bits, w_bits, out_bits;
  };
  u64 seed = 101;
  for (const Case c : {Case{64, 8, 8, 4, 8}, Case{64, 8, 8, 2, 8},
                       Case{64, 8, 4, 2, 8}, Case{16, 8, 8, 4, 4},
                       Case{16, 8, 8, 2, 2}, Case{64, 8, 4, 2, 4}}) {
    const auto data = ConvLayerData::random(
        qnn::ConvSpec::linear(c.in_f, c.out_f, c.in_bits, c.w_bits,
                              c.out_bits),
        seed++);
    const auto gold = test::linear_golden(data);
    for (const bool reference : {true, false}) {
      for (const bool superblock : {false, true}) {
        if (reference && superblock) continue;
        const auto res =
            run_conv_layer(data, ConvVariant::kXpulpNN_Mixed,
                           dispatch_cfg(reference, superblock));
        for (int i = 0; i < gold.elems(); ++i) {
          ASSERT_EQ(res.output.flat(i), gold.flat(i))
              << "a" << c.in_bits << "w" << c.w_bits << "o" << c.out_bits
              << " ref=" << reference << " sb=" << superblock
              << " elem=" << i;
        }
      }
    }
  }
}

TEST(MixedConv, UniformVariantsRejectMixedSpecs) {
  qnn::ConvSpec s = to_spec({8, 4, 8, 6, 6, 8, 4, 3, 1, 0});
  EXPECT_THROW(generate_conv_kernel(s, ConvVariant::kXpulpV2_8b), SimError);
  EXPECT_THROW(generate_conv_kernel(s, ConvVariant::kXpulpNN_HwQ), SimError);
}

TEST(MixedConv, MixedVariantRejectsUniformAndUnsupportedSpecs) {
  // Uniform 8x8 has no mpc selector.
  qnn::ConvSpec s = to_spec({8, 8, 8, 6, 6, 8, 4, 3, 1, 0});
  EXPECT_THROW(generate_conv_kernel(s, ConvVariant::kXpulpNN_Mixed),
               SimError);
  // 4x8 (weights wider than activations) is not a virtual-SIMD pair.
  s.in_bits = 4;
  s.w_bits = 8;
  EXPECT_THROW(generate_conv_kernel(s, ConvVariant::kXpulpNN_Mixed),
               SimError);
}

TEST(MixedConv, MixedVariantNeedsXpulpNN) {
  EXPECT_FALSE(
      variant_supported(ConvVariant::kXpulpNN_Mixed, sim::CoreConfig::ri5cy()));
  EXPECT_TRUE(variant_supported(ConvVariant::kXpulpNN_Mixed,
                                sim::CoreConfig::extended()));
}

TEST(MixedSelect, SelectorMapping) {
  EXPECT_EQ(mixed_sel_for(8, 4), 0u);
  EXPECT_EQ(mixed_sel_for(8, 2), 1u);
  EXPECT_EQ(mixed_sel_for(4, 2), 2u);
  EXPECT_THROW(mixed_sel_for(8, 8), SimError);
  EXPECT_THROW(mixed_sel_for(4, 4), SimError);
  EXPECT_THROW(mixed_sel_for(2, 2), SimError);
  EXPECT_THROW(mixed_sel_for(4, 8), SimError);
}

TEST(MixedCsr, ReservedSelectorTrapsOnEveryDispatchMode) {
  // mpc is WARL over its low two bits; value 3 is reserved and every mixed
  // dot op must raise IllegalInstruction while it is set.
  auto body = [](xasm::Assembler& a) {
    a.csrrwi(r::zero, isa::kMpcCsr, 3);
    a.li(r::t0, 0x01020304);
    a.li(r::t1, 0x00000011);
    a.pv_mldotup(r::a0, r::t0, r::t1);
  };
  for (const bool reference : {true, false}) {
    EXPECT_THROW(
        test::run_program(body, dispatch_cfg(reference, /*superblock=*/false)),
        SimError);
  }
}

TEST(MixedCsr, SelectorReadsBackAndMasksWrites) {
  // csrrw readback: write 0x...fe (low bits 2), read old value back.
  const auto res = test::run_program([](xasm::Assembler& a) {
    a.csrrwi(r::zero, isa::kMpcCsr, 1);
    a.li(r::t0, 0x7ffffffe);              // WARL: only low 2 bits stick
    a.csrrw(r::a0, isa::kMpcCsr, r::t0);  // a0 = 1
    a.csrrw(r::a1, isa::kMpcCsr, r::zero);  // a1 = 2 (0xfe & 3)
  });
  EXPECT_EQ(res.regs[r::a0], 1u);
  EXPECT_EQ(res.regs[r::a1], 2u);
}

}  // namespace
}  // namespace xpulp::kernels
