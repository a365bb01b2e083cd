// XpulpV2 extension semantics: post-increment/indexed memory, hardware
// loops, scalar min/max/abs/clip, MAC, bit manipulation.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "sim_test_util.hpp"

namespace xpulp {
namespace {

namespace r = xasm::reg;
using test::run_program;

TEST(XpulpV2, PostIncrementLoadStreams) {
  auto res = run_program([](xasm::Assembler& a) {
    a.li(r::s0, 0x1000);
    a.li(r::t0, 0x04030201);
    a.sw(r::t0, r::s0, 0);
    a.li(r::t0, 0x08070605);
    a.sw(r::t0, r::s0, 4);
    a.p_lbu_post(r::a0, r::s0, 1);  // 1
    a.p_lbu_post(r::a1, r::s0, 1);  // 2
    a.p_lhu_post(r::a2, r::s0, 2);  // 0x0403
    a.p_lw_post(r::a3, r::s0, 4);   // 0x08070605
    a.mv(r::a4, r::s0);             // base advanced to 0x1008
  });
  EXPECT_EQ(res.regs[r::a0], 1u);
  EXPECT_EQ(res.regs[r::a1], 2u);
  EXPECT_EQ(res.regs[r::a2], 0x0403u);
  EXPECT_EQ(res.regs[r::a3], 0x08070605u);
  EXPECT_EQ(res.regs[r::a4], 0x1008u);
}

TEST(XpulpV2, PostIncrementLoadSignExtends) {
  auto res = run_program([](xasm::Assembler& a) {
    a.li(r::s0, 0x1000);
    a.li(r::t0, 0xff80);
    a.sw(r::t0, r::s0, 0);
    a.p_lb_post(r::a0, r::s0, 1);  // 0x80 -> -128
    a.li(r::s0, 0x1000);
    a.p_lh_post(r::a1, r::s0, 2);  // 0xff80 -> -128
  });
  EXPECT_EQ(static_cast<i32>(res.regs[r::a0]), -128);
  EXPECT_EQ(static_cast<i32>(res.regs[r::a1]), -128);
}

TEST(XpulpV2, PostIncrementStoreAndNegativeStride) {
  auto res = run_program([](xasm::Assembler& a) {
    a.li(r::s0, 0x1008);
    a.li(r::t0, 0xaa);
    a.p_sb_post(r::t0, r::s0, -1);  // walk downwards
    a.p_sb_post(r::t0, r::s0, -1);
    a.p_sb_post(r::t0, r::s0, -1);
    a.mv(r::a0, r::s0);
    a.li(r::s1, 0x1006);
    a.lw(r::a1, r::s1, 0);
  });
  EXPECT_EQ(res.regs[r::a0], 0x1005u);
  EXPECT_EQ(res.regs[r::a1] & 0x00ffffffu, 0x00aaaaaau);
}

TEST(XpulpV2, RegisterPostIncrementAndIndexed) {
  auto res = run_program([](xasm::Assembler& a) {
    a.li(r::s0, 0x1000);
    a.li(r::t0, 0x12345678);
    a.sw(r::t0, r::s0, 0);
    a.li(r::t1, 0x9abcdef0);
    a.sw(r::t1, r::s0, 8);
    a.li(r::t2, 8);
    a.p_lw_rr(r::a0, r::s0, r::t2);      // indexed: mem[0x1008]
    a.p_lw_post_r(r::a1, r::s0, r::t2);  // mem[0x1000], base += 8
    a.p_lw_rr(r::a2, r::s0, r::zero);    // mem[0x1008]
    a.li(r::t3, 0x55);
    a.li(r::t4, 4);
    a.p_sw_post_r(r::t3, r::s0, r::t4);  // mem[0x1008] = 0x55, base += 4
    a.li(r::t6, 0x1008);
    a.lw(r::a3, r::t6, 0);
    a.mv(r::a4, r::s0);
    a.li(r::t5, 0x66);
    a.p_sw_rr(r::t5, r::zero, r::a4);    // mem[0x100c] = 0x66
    a.lw(r::a5, r::t6, 4);
  });
  EXPECT_EQ(res.regs[r::a0], 0x9abcdef0u);
  EXPECT_EQ(res.regs[r::a1], 0x12345678u);
  EXPECT_EQ(res.regs[r::a2], 0x9abcdef0u);
  EXPECT_EQ(res.regs[r::a3], 0x55u);
  EXPECT_EQ(res.regs[r::a4], 0x100cu);
  EXPECT_EQ(res.regs[r::a5], 0x66u);
}

TEST(XpulpV2, ScalarMinMaxAbsExt) {
  auto res = run_program([](xasm::Assembler& a) {
    a.li(r::a0, -5);
    a.li(r::a1, 3);
    a.p_min(r::t0, r::a0, r::a1);
    a.p_max(r::t1, r::a0, r::a1);
    a.p_minu(r::t2, r::a0, r::a1);  // unsigned: 3
    a.p_maxu(r::t3, r::a0, r::a1);  // 0xfffffffb
    a.p_abs(r::t4, r::a0);
    a.li(r::a2, 0x8fff);
    a.p_exths(r::t5, r::a2);
    a.p_exthz(r::t6, r::a2);
    a.li(r::a3, 0x80);
    a.p_extbs(r::s0, r::a3);
    a.p_extbz(r::s1, r::a3);
  });
  EXPECT_EQ(static_cast<i32>(res.regs[r::t0]), -5);
  EXPECT_EQ(res.regs[r::t1], 3u);
  EXPECT_EQ(res.regs[r::t2], 3u);
  EXPECT_EQ(res.regs[r::t3], 0xfffffffbu);
  EXPECT_EQ(res.regs[r::t4], 5u);
  EXPECT_EQ(static_cast<i32>(res.regs[r::t5]), static_cast<i32>(0xffff8fff));
  EXPECT_EQ(res.regs[r::t6], 0x8fffu);
  EXPECT_EQ(static_cast<i32>(res.regs[r::s0]), -128);
  EXPECT_EQ(res.regs[r::s1], 0x80u);
}

TEST(XpulpV2, CountBitOps) {
  auto res = run_program([](xasm::Assembler& a) {
    a.li(r::a0, 0x000f0f00);
    a.p_cnt(r::t0, r::a0);
    a.p_ff1(r::t1, r::a0);
    a.p_fl1(r::t2, r::a0);
    a.p_clb(r::t3, r::a0);
    a.li(r::a1, 8);
    a.p_ror(r::t4, r::a0, r::a1);
  });
  EXPECT_EQ(res.regs[r::t0], 8u);
  EXPECT_EQ(res.regs[r::t1], 8u);
  EXPECT_EQ(res.regs[r::t2], 19u);
  EXPECT_EQ(res.regs[r::t3], 11u);  // 12 leading zeros - 1
  EXPECT_EQ(res.regs[r::t4], 0x00000f0fu);
}

TEST(XpulpV2, ClipSaturates) {
  auto res = run_program([](xasm::Assembler& a) {
    a.li(r::a0, 300);
    a.p_clip(r::t0, r::a0, 8);    // [-128, 127]
    a.li(r::a1, -300);
    a.p_clip(r::t1, r::a1, 8);
    a.p_clipu(r::t2, r::a0, 8);   // [0, 255]
    a.p_clipu(r::t3, r::a1, 8);
    a.li(r::a2, 100);
    a.p_clip(r::t4, r::a2, 8);    // in range
  });
  EXPECT_EQ(static_cast<i32>(res.regs[r::t0]), 127);
  EXPECT_EQ(static_cast<i32>(res.regs[r::t1]), -128);
  EXPECT_EQ(res.regs[r::t2], 255u);
  EXPECT_EQ(res.regs[r::t3], 0u);
  EXPECT_EQ(res.regs[r::t4], 100u);
}

TEST(XpulpV2, MacMsuAccumulate) {
  auto res = run_program([](xasm::Assembler& a) {
    a.li(r::a0, 3);
    a.li(r::a1, 4);
    a.li(r::t0, 100);
    a.p_mac(r::t0, r::a0, r::a1);  // 112
    a.p_mac(r::t0, r::a0, r::a1);  // 124
    a.li(r::t1, 100);
    a.p_msu(r::t1, r::a0, r::a1);  // 88
  });
  EXPECT_EQ(res.regs[r::t0], 124u);
  EXPECT_EQ(res.regs[r::t1], 88u);
}

TEST(XpulpV2, BitManipulation) {
  auto res = run_program([](xasm::Assembler& a) {
    a.li(r::a0, 0x00f0a500);
    a.p_extract(r::t0, r::a0, 8, 16);   // 0xf0 sign-extended -> -16
    a.p_extractu(r::t1, r::a0, 8, 16);  // 0xf0
    a.li(r::t2, 0);
    a.li(r::a1, 0xa5);
    a.mv(r::t2, r::zero);
    a.p_insert(r::t2, r::a1, 8, 8);     // t2[15:8] = 0xa5
    a.p_bset(r::t3, r::zero, 4, 4);     // 0xf0
    a.li(r::a2, -1);
    a.p_bclr(r::t4, r::a2, 16, 8);      // clear bits 23:8
  });
  EXPECT_EQ(static_cast<i32>(res.regs[r::t0]), -16);
  EXPECT_EQ(res.regs[r::t1], 0xf0u);
  EXPECT_EQ(res.regs[r::t2], 0xa500u);
  EXPECT_EQ(res.regs[r::t3], 0xf0u);
  EXPECT_EQ(res.regs[r::t4], 0xff0000ffu);
}

TEST(XpulpV2, HardwareLoopSetupi) {
  auto res = run_program([](xasm::Assembler& a) {
    a.li(r::a0, 0);
    auto end = a.new_label();
    a.lp_setupi(0, 10, end);
    a.addi(r::a0, r::a0, 1);
    a.addi(r::a1, r::a1, 2);
    a.bind(end);
  });
  EXPECT_EQ(res.regs[r::a0], 10u);
  EXPECT_EQ(res.regs[r::a1], 20u);
  EXPECT_EQ(res.perf.hwloop_backedges, 9u);
  EXPECT_EQ(res.perf.taken_branches, 0u);  // zero-overhead looping
}

TEST(XpulpV2, HardwareLoopSetupWithRegisterCount) {
  auto res = run_program([](xasm::Assembler& a) {
    a.li(r::t0, 100);
    a.li(r::a0, 0);
    auto end = a.new_label();
    a.lp_setup(0, r::t0, end);
    a.addi(r::a0, r::a0, 3);
    a.nop();
    a.bind(end);
    a.addi(r::a1, r::a0, 1);  // falls through after the final iteration
  });
  EXPECT_EQ(res.regs[r::a0], 300u);
  EXPECT_EQ(res.regs[r::a1], 301u);
  EXPECT_EQ(res.perf.hwloop_backedges, 99u);
}

TEST(XpulpV2, NestedHardwareLoops) {
  auto res = run_program([](xasm::Assembler& a) {
    a.li(r::a0, 0);
    a.li(r::t0, 5);
    auto end1 = a.new_label();
    a.lp_setup(1, r::t0, end1);       // outer loop (L1)
    auto end0 = a.new_label();
    a.lp_setupi(0, 7, end0);          // inner loop (L0)
    a.addi(r::a0, r::a0, 1);
    a.nop();
    a.bind(end0);
    a.addi(r::a1, r::a1, 1);          // outer body tail
    a.bind(end1);
  });
  EXPECT_EQ(res.regs[r::a0], 35u);
  EXPECT_EQ(res.regs[r::a1], 5u);
}

TEST(XpulpV2, ExplicitLoopRegisterSetup) {
  // lp.starti / lp.endi / lp.counti assemble the same loop piecewise.
  auto res = run_program([](xasm::Assembler& a) {
    a.li(r::a0, 0);
    auto start = a.new_label();
    auto end = a.new_label();
    a.lp_starti(0, start);
    a.lp_endi(0, end);
    a.lp_counti(0, 6);
    a.bind(start);
    a.addi(r::a0, r::a0, 5);
    a.nop();
    a.bind(end);
  });
  EXPECT_EQ(res.regs[r::a0], 30u);
}

TEST(XpulpV2, LpCountFromRegister) {
  auto res = run_program([](xasm::Assembler& a) {
    a.li(r::a0, 0);
    a.li(r::t1, 4);
    auto start = a.new_label();
    auto end = a.new_label();
    a.lp_starti(0, start);
    a.lp_endi(0, end);
    a.lp_count(0, r::t1);
    a.bind(start);
    a.addi(r::a0, r::a0, 1);
    a.nop();
    a.bind(end);
  });
  EXPECT_EQ(res.regs[r::a0], 4u);
}

TEST(XpulpV2, BaselineCoreRejectsNothingFromV2) {
  // XpulpV2 ops must work on the *baseline* RI5CY configuration too.
  auto res = run_program(
      [](xasm::Assembler& a) {
        a.li(r::a0, -9);
        a.p_abs(r::a1, r::a0);
        auto end = a.new_label();
        a.lp_setupi(0, 3, end);
        a.addi(r::a2, r::a2, 1);
        a.nop();
        a.bind(end);
      },
      sim::CoreConfig::ri5cy());
  EXPECT_EQ(res.regs[r::a1], 9u);
  EXPECT_EQ(res.regs[r::a2], 3u);
}

// A core reset to a new program (and its counters zeroed) must count
// exactly like a freshly constructed core: program A leaves a load word in
// the LSU data latch, a value in mscratch and operands in the dot unit's
// 8- and 4-bit region latches; program B's toggles, dot activity and
// mscratch read must not see any of it.
TEST(CoreReset, CountsLikeFreshCore) {
  xasm::Assembler pa(0);
  pa.li(r::s0, 0x2000);
  pa.li(r::t0, 0x12345678);
  pa.sw(r::t0, r::s0, 0);
  pa.lw(r::a0, r::s0, 0);
  pa.li(r::t0, 0xdeadbeef);
  pa.csrrw(static_cast<u8>(r::zero), 0x340, static_cast<u8>(r::t0));
  pa.li(r::t1, 0x7f7f7f7f);
  pa.li(r::t2, 0x81818181);
  pa.pv_sdotsp(isa::SimdFmt::kB, r::a1, r::t1, r::t2);
  pa.pv_sdotsp(isa::SimdFmt::kN, r::a2, r::t1, r::t2);
  pa.ecall();
  const xasm::Program prog_a = pa.finish();

  xasm::Assembler pb(0x1000);
  pb.csrrs(static_cast<u8>(r::a0), 0x340, static_cast<u8>(r::zero));
  pb.li(r::s0, 0x2100);
  pb.sw(r::a0, r::s0, 0);
  pb.lw(r::a1, r::s0, 0);
  pb.li(r::t1, 0x01020304);
  pb.li(r::t2, 0x05060708);
  pb.pv_sdotsp(isa::SimdFmt::kB, r::a2, r::t1, r::t2);
  pb.pv_sdotsp(isa::SimdFmt::kN, r::a3, r::t1, r::t2);
  pb.ecall();
  const xasm::Program prog_b = pb.finish();

  const auto reset_to = [](sim::Core& core, const xasm::Program& p) {
    core.reset(p.entry(), p.base() + p.size_bytes());
  };
  for (const bool reference : {true, false}) {
    sim::CoreConfig cfg = sim::CoreConfig::extended();
    cfg.reference_dispatch = reference;

    mem::Memory mem;
    prog_a.load(mem);
    prog_b.load(mem);
    sim::Core reused(mem, cfg);
    reset_to(reused, prog_a);
    ASSERT_EQ(reused.run(), sim::HaltReason::kEcall);
    ASSERT_GT(reused.dotp_unit().activity().ops[1], 0u);
    reset_to(reused, prog_b);
    reused.reset_perf();
    ASSERT_EQ(reused.run(), sim::HaltReason::kEcall);

    mem::Memory fresh_mem;
    prog_b.load(fresh_mem);
    sim::Core fresh(fresh_mem, cfg);
    reset_to(fresh, prog_b);
    ASSERT_EQ(fresh.run(), sim::HaltReason::kEcall);

    EXPECT_EQ(reused.perf(), fresh.perf())
        << "lsu_data_toggles " << reused.perf().lsu_data_toggles << " vs "
        << fresh.perf().lsu_data_toggles;
    const sim::DotpActivity& ra = reused.dotp_unit().activity();
    const sim::DotpActivity& fa = fresh.dotp_unit().activity();
    EXPECT_EQ(ra.operand_toggles, fa.operand_toggles);
    EXPECT_EQ(ra.ops, fa.ops);
    for (unsigned i = 0; i < 32; ++i) {
      EXPECT_EQ(reused.reg(i), fresh.reg(i)) << "x" << i;
    }
    if (::testing::Test::HasFailure()) {
      FAIL() << (reference ? "reference" : "fast") << " dispatch";
    }
  }
}

}  // namespace
}  // namespace xpulp
