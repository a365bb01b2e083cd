// Superblock engine unit tests: coverage statistics, runtime toggling,
// instruction-limit boundary exactness across fused bursts, where run(),
// run_steps() and run_burst() stop in each dispatch mode, a
// differential sweep over every dot-product mnemonic/format combination —
// the combinations the fused loop routes through host-SIMD kernels
// (8-bit, nibble, crumb, mixed) and the one that stays on the scalar lane
// kernel (16-bit) must all be bit-identical to the reference interpreter —
// the 2x2 conv body under every macro-op lane kernel, and content-addressed
// plan sharing across unrolled copies of a body (one compile, per-copy
// invalidation, mpc eviction, pc-relative bodies).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "diff_test_util.hpp"
#include "isa/encoding.hpp"
#include "isa/instruction.hpp"
#include "mem/memory.hpp"
#include "sim/core.hpp"
#include "sim/superblock.hpp"
#include "xasm/assembler.hpp"

namespace xpulp {
namespace {

namespace r = xasm::reg;
using test::expect_identical;
using test::final_state_of;
using test::FinalState;

constexpr addr_t kData = 0x8000;

/// Run `prog` with deterministic pseudo-random operand bytes mapped at
/// kData (zero-filled memory would make every dot product and toggle
/// count trivially zero).
FinalState run_prog(const xasm::Program& prog, bool reference,
                    bool superblock,
                    sim::SuperblockStats* stats_out = nullptr,
                    u64 max_instr = 2'000'000) {
  sim::CoreConfig cfg = sim::CoreConfig::extended();
  cfg.reference_dispatch = reference;
  cfg.superblock = superblock;
  mem::Memory mem;
  prog.load(mem);
  std::vector<u8> data(1024);
  Rng rng(0x0ddba11);
  for (auto& b : data) b = static_cast<u8>(rng.uniform(0, 255));
  mem.write_block(kData, data);
  sim::Core core(mem, cfg);
  core.reset(prog.entry(), prog.base() + prog.size_bytes());
  core.run(max_instr);
  if (stats_out) *stats_out = core.superblock_stats();
  return final_state_of(core, mem);
}

/// A hot hardware loop mixing a post-increment load with ALU ops: small
/// enough to compile, hot enough (31 iterations) to dominate the run.
xasm::Program hot_hwloop_program() {
  xasm::Assembler a(0);
  a.li(r::s0, kData);
  a.li(r::a0, 0);
  const xasm::Assembler::Label end = a.new_label();
  a.lp_setupi(0, 31, end);
  a.p_lw_post(r::t0, r::s0, 4);
  a.addi(r::a0, r::a0, 3);
  a.add(r::a1, r::a0, r::t0);
  a.bind(end);
  a.ecall();
  return a.finish();
}

TEST(Superblock, StatsCountFusedExecution) {
  const xasm::Program prog = hot_hwloop_program();
  sim::SuperblockStats stats;
  const FinalState sb = run_prog(prog, false, true, &stats);
  ASSERT_EQ(sb.reason, sim::HaltReason::kEcall);

  EXPECT_GT(stats.blocks_compiled, 0u);
  EXPECT_GT(stats.entries, 0u);
  EXPECT_GT(stats.fused_iterations, 0u);
  EXPECT_GT(stats.fused_instructions, 0u);
  EXPECT_LE(stats.fused_instructions, sb.perf.instructions);
  EXPECT_EQ(stats.smc_bails, 0u);
  EXPECT_EQ(stats.trap_bails, 0u);

  // And the fused run is bit-identical to both interpreter modes.
  expect_identical(run_prog(prog, true, false), sb);
  expect_identical(run_prog(prog, false, false), sb);
}

TEST(Superblock, RuntimeToggleKeepsEngineCold) {
  // set_superblock(false) before the run: no burst may be entered, and
  // the result must match the plain fast path exactly.
  const xasm::Program prog = hot_hwloop_program();
  sim::CoreConfig cfg = sim::CoreConfig::extended();
  cfg.superblock = true;
  mem::Memory mem;
  prog.load(mem);
  std::vector<u8> data(1024);
  Rng rng(0x0ddba11);
  for (auto& b : data) b = static_cast<u8>(rng.uniform(0, 255));
  mem.write_block(kData, data);
  sim::Core core(mem, cfg);
  core.reset(prog.entry(), prog.base() + prog.size_bytes());
  core.set_superblock(false);
  core.run(2'000'000);
  EXPECT_EQ(core.superblock_stats().entries, 0u);
  EXPECT_EQ(core.superblock_stats().fused_instructions, 0u);
  expect_identical(run_prog(prog, false, false), final_state_of(core, mem));
}

TEST(Superblock, InstructionLimitSweepIsBoundaryExact) {
  // Every instruction-limit value must stop the fused engine on exactly
  // the same boundary (state, counters, halt reason) as the reference
  // interpreter — including limits that land mid-burst, where the engine
  // must either cap the burst budget or reject entry.
  const xasm::Program prog = hot_hwloop_program();
  const FinalState full = run_prog(prog, true, false);
  ASSERT_EQ(full.reason, sim::HaltReason::kEcall);
  const u64 total = full.perf.instructions;

  for (u64 limit = 1; limit <= total + 1; ++limit) {
    const FinalState ref = run_prog(prog, true, false, nullptr, limit);
    const FinalState sb = run_prog(prog, false, true, nullptr, limit);
    expect_identical(ref, sb);
    if (limit <= total) {
      EXPECT_EQ(sb.perf.instructions, std::min(limit, total));
    }
    if (::testing::Test::HasFailure()) FAIL() << "limit " << limit;
  }
}

// ------------------------------------------- stop semantics of the entry points
// run(), run_steps() and run_burst() share the run loops; these cases pin
// where each one stops, three-way diffed across the reference interpreter,
// the plain fast path and the superblock engine.

enum class Dispatch { kReference, kFast, kSuperblock };
constexpr Dispatch kDispatchModes[] = {Dispatch::kReference, Dispatch::kFast,
                                       Dispatch::kSuperblock};

/// Load `prog` and kData's operand bytes, run `drive(core)` on a fresh core
/// in dispatch mode `d`, and return the end state (and engine stats).
template <typename Drive>
FinalState drive_prog(const xasm::Program& prog, Dispatch d, Drive drive,
                      sim::SuperblockStats* stats_out = nullptr) {
  sim::CoreConfig cfg = sim::CoreConfig::extended();
  cfg.reference_dispatch = d == Dispatch::kReference;
  cfg.superblock = d == Dispatch::kSuperblock;
  mem::Memory mem;
  prog.load(mem);
  std::vector<u8> data(1024);
  Rng rng(0x0ddba11);
  for (auto& b : data) b = static_cast<u8>(rng.uniform(0, 255));
  mem.write_block(kData, data);
  sim::Core core(mem, cfg);
  core.reset(prog.entry(), prog.base() + prog.size_bytes());
  drive(core);
  if (stats_out) *stats_out = core.superblock_stats();
  return final_state_of(core, mem);
}

/// Drive all three modes; they must agree bit-for-bit. Returns the
/// reference end state and the superblock mode's engine stats.
template <typename Drive>
FinalState drive_three_way(const xasm::Program& prog, Drive drive,
                           sim::SuperblockStats* sb_stats = nullptr) {
  const FinalState ref = drive_prog(prog, Dispatch::kReference, drive);
  expect_identical(ref, drive_prog(prog, Dispatch::kFast, drive));
  expect_identical(ref,
                   drive_prog(prog, Dispatch::kSuperblock, drive, sb_stats));
  return ref;
}

TEST(SuperblockStops, RunLimitAroundTheEcall) {
  const xasm::Program prog = hot_hwloop_program();
  const FinalState full = run_prog(prog, true, false);
  ASSERT_EQ(full.reason, sim::HaltReason::kEcall);
  const u64 ecall_index = full.perf.instructions;  // the ecall retires last

  // Retiring the whole budget reports kInstrLimit — also when the budget's
  // last instruction is the ecall itself; one more and the ecall wins.
  const struct {
    u64 n;
    sim::HaltReason reason;
  } cases[] = {{ecall_index - 1, sim::HaltReason::kInstrLimit},
               {ecall_index, sim::HaltReason::kInstrLimit},
               {ecall_index + 1, sim::HaltReason::kEcall}};
  for (const auto& c : cases) {
    sim::HaltReason returned = sim::HaltReason::kRunning;
    const FinalState st = drive_three_way(
        prog, [&](sim::Core& core) { returned = core.run(c.n); });
    EXPECT_EQ(st.reason, c.reason) << "n " << c.n;
    EXPECT_EQ(returned, c.reason) << "n " << c.n;
    EXPECT_EQ(st.perf.instructions, std::min(c.n, ecall_index)) << "n " << c.n;
  }
}

TEST(SuperblockStops, RunStepsReturnsNAndNeverSetsInstrLimit) {
  const xasm::Program prog = hot_hwloop_program();
  const FinalState full = run_prog(prog, true, false);
  const u64 total = full.perf.instructions;

  sim::SuperblockStats stats;
  for (u64 n = 1; n <= total + 1; ++n) {
    u64 returned = 0;
    const FinalState st = drive_three_way(
        prog, [&](sim::Core& core) { returned = core.run_steps(n); },
        &stats);
    EXPECT_EQ(returned, std::min(n, total));
    EXPECT_EQ(st.perf.instructions, std::min(n, total));
    EXPECT_EQ(st.reason, n < total ? sim::HaltReason::kRunning
                                   : sim::HaltReason::kEcall);
    if (::testing::Test::HasFailure()) FAIL() << "n " << n;
  }
  EXPECT_GT(stats.fused_instructions, 0u);  // the last n ran fused

  // Chunked run_steps walks to the same end state as one run().
  const FinalState chunked = drive_three_way(prog, [](sim::Core& core) {
    while (core.run_steps(7) == 7) {
    }
  });
  expect_identical(full, chunked);
}

TEST(SuperblockStops, RunBurstStopsAtFirstBoundaryPastTheHorizon) {
  const xasm::Program prog = hot_hwloop_program();
  const FinalState full = run_prog(prog, true, false);
  const cycles_t total_cycles = full.perf.cycles;

  u64 burst_flushes = 0;
  u64 fused = 0;
  for (cycles_t h = 0; h <= total_cycles + 1; ++h) {
    // Expected stop: per-instruction stepping up to the first boundary
    // whose cycle count is at or past the horizon.
    const FinalState want =
        drive_prog(prog, Dispatch::kReference, [h](sim::Core& core) {
          while (!core.halted() && core.perf().cycles < h) core.step();
        });
    u64 returned = 0;
    sim::SuperblockStats stats;
    const FinalState got = drive_three_way(
        prog,
        [&](sim::Core& core) { returned = core.run_burst(h, 1'000'000); },
        &stats);
    expect_identical(want, got);
    EXPECT_EQ(returned, got.perf.instructions);
    EXPECT_NE(got.reason, sim::HaltReason::kInstrLimit);
    burst_flushes += stats.burst_flushes;
    fused += stats.fused_instructions;
    if (::testing::Test::HasFailure()) FAIL() << "horizon " << h;
  }
  // Some horizons landed inside a fused body, and the burst repaired to
  // the exact boundary.
  EXPECT_GT(burst_flushes, 0u);
  EXPECT_GT(fused, 0u);

  // The instruction budget still binds under a far horizon.
  const FinalState capped = drive_three_way(prog, [](sim::Core& core) {
    EXPECT_EQ(core.run_burst(cycles_t{1} << 40, 20), 20u);
  });
  EXPECT_EQ(capped.perf.instructions, 20u);
  EXPECT_EQ(capped.reason, sim::HaltReason::kRunning);
}

/// A load through the address stored at kData + 0x200 (the test writes
/// either a valid or an out-of-range one), then the hot hwloop.
xasm::Program pointer_then_hot_program() {
  xasm::Assembler a(0);
  a.li(r::s1, kData + 0x200);
  a.lw(r::s2, r::s1, 0);
  a.lw(r::t2, r::s2, 0);  // faults on an out-of-range pointer
  a.li(r::s0, kData);
  a.li(r::a0, 0);
  const xasm::Assembler::Label end = a.new_label();
  a.lp_setupi(0, 31, end);
  a.p_lw_post(r::t0, r::s0, 4);
  a.addi(r::a0, r::a0, 3);
  a.add(r::a1, r::a0, r::t0);
  a.bind(end);
  a.ecall();
  return a.finish();
}

TEST(SuperblockStops, GuestFaultInRunBurstLeavesNoHorizonBehind) {
  const xasm::Program prog = pointer_then_hot_program();
  const auto set_pointer = [](mem::Memory& mem, u32 ptr) {
    std::vector<u8> b(4);
    for (unsigned i = 0; i < 4; ++i) b[i] = static_cast<u8>(ptr >> (8 * i));
    mem.write_block(kData + 0x200, b);
  };
  for (const Dispatch d : kDispatchModes) {
    sim::CoreConfig cfg = sim::CoreConfig::extended();
    cfg.reference_dispatch = d == Dispatch::kReference;
    cfg.superblock = d == Dispatch::kSuperblock;

    // The good program's cycle count, to place a horizon mid-run.
    mem::Memory good_mem;
    prog.load(good_mem);
    set_pointer(good_mem, kData);
    sim::Core good(good_mem, cfg);
    good.reset(prog.entry(), prog.base() + prog.size_bytes());
    ASSERT_EQ(good.run(), sim::HaltReason::kEcall);
    const cycles_t horizon = good.perf().cycles / 2;

    // Two cores fault on the bad pointer well before that horizon: one
    // inside run_burst(horizon), the control inside run(). Both then run
    // the good program again; a horizon left behind by the faulted burst
    // would stop (or flush) the first core's run at `horizon`.
    const auto rerun = [&](bool burst, mem::Memory& mem, sim::Core& core) {
      prog.load(mem);
      set_pointer(mem, 0xfffffff0u);
      core.reset(prog.entry(), prog.base() + prog.size_bytes());
      if (burst) {
        EXPECT_THROW(core.run_burst(horizon, 1'000'000), SimError);
      } else {
        EXPECT_THROW(core.run(), SimError);
      }
      set_pointer(mem, kData);
      core.reset(prog.entry(), prog.base() + prog.size_bytes());
      core.reset_perf();
      EXPECT_EQ(core.run(), sim::HaltReason::kEcall);
    };
    mem::Memory burst_mem, control_mem;
    sim::Core burst(burst_mem, cfg), control(control_mem, cfg);
    rerun(true, burst_mem, burst);
    rerun(false, control_mem, control);
    EXPECT_EQ(burst.perf(), control.perf());
    EXPECT_EQ(burst.superblock_stats(), control.superblock_stats());
    EXPECT_EQ(burst.superblock_stats(), good.superblock_stats());
    for (unsigned i = 0; i < 32; ++i) EXPECT_EQ(burst.reg(i), good.reg(i));
    if (d == Dispatch::kSuperblock) {
      EXPECT_GT(burst.superblock_stats().fused_instructions, 0u);
    }
  }
}

TEST(Superblock, DotVariantSweepBitIdentical) {
  // Hot hwloop around [2 post-inc loads + 1 dot]: every mnemonic x format
  // combination, diffed fused-vs-reference. This walks every fused dot
  // path: the host-SIMD byte and nibble kernels, the scalar-replicated
  // expansions, and the generic lane kernel (16-bit, crumb).
  using isa::SimdFmt;
  struct OpCase {
    const char* name;
    void (xasm::Assembler::*emit)(SimdFmt, u8, u8, u8);
  };
  const OpCase ops[] = {
      {"dotup", &xasm::Assembler::pv_dotup},
      {"dotusp", &xasm::Assembler::pv_dotusp},
      {"dotsp", &xasm::Assembler::pv_dotsp},
      {"sdotup", &xasm::Assembler::pv_sdotup},
      {"sdotusp", &xasm::Assembler::pv_sdotusp},
      {"sdotsp", &xasm::Assembler::pv_sdotsp},
  };
  const SimdFmt fmts[] = {SimdFmt::kB, SimdFmt::kBSc, SimdFmt::kH,
                          SimdFmt::kHSc, SimdFmt::kN, SimdFmt::kNSc,
                          SimdFmt::kC, SimdFmt::kCSc};

  for (const OpCase& op : ops) {
    for (const SimdFmt fmt : fmts) {
      xasm::Assembler a(0);
      a.li(r::s0, kData);
      a.li(r::a0, 0x1234);  // live accumulator for the sdot variants
      const xasm::Assembler::Label end = a.new_label();
      a.lp_setupi(0, 24, end);
      a.p_lw_post(r::t0, r::s0, 4);
      a.p_lw_post(r::t1, r::s0, 4);
      (a.*(op.emit))(fmt, r::a0, r::t0, r::t1);
      a.bind(end);
      a.ecall();
      const xasm::Program prog = a.finish();

      sim::SuperblockStats stats;
      const FinalState ref = run_prog(prog, true, false);
      const FinalState sb = run_prog(prog, false, true, &stats);
      ASSERT_EQ(ref.reason, sim::HaltReason::kEcall) << op.name;
      EXPECT_GT(stats.fused_iterations, 0u) << op.name;
      expect_identical(ref, sb);
      if (::testing::Test::HasFailure()) {
        FAIL() << op.name << " fmt " << static_cast<int>(fmt);
      }
    }
  }
}

/// The conv generator's 2x2-blocked inner body over any dot emitter:
/// post-increment loads of two rs1 words (s0) and two rs2 words (s1), then
/// four accumulate-dots in the 2x2 operand pattern. `prologue` runs first
/// (an mpc write for mixed dots).
template <typename Dot, typename Prologue>
xasm::Program conv_inner_program(Dot dot, Prologue prologue) {
  xasm::Assembler a(0);
  prologue(a);
  a.li(r::s0, kData);
  a.li(r::s1, kData + 0x100);
  for (u8 acc : {r::a4, r::a5, r::a6, r::a7}) a.li(acc, 0x1234);
  const xasm::Assembler::Label end = a.new_label();
  a.lp_setupi(0, 24, end);
  a.p_lw_post(r::t0, r::s0, 4);  // x0
  a.p_lw_post(r::t1, r::s0, 4);  // x1
  a.p_lw_post(r::t2, r::s1, 4);  // w0
  a.p_lw_post(r::t3, r::s1, 4);  // w1
  dot(a, r::a4, r::t0, r::t2);
  dot(a, r::a5, r::t1, r::t2);
  dot(a, r::a6, r::t0, r::t3);
  dot(a, r::a7, r::t1, r::t3);
  a.bind(end);
  a.ecall();
  return a.finish();
}

/// Reference ≡ fast ≡ superblock on every counter, and every fused
/// iteration through the macro-op (`macro`) or none of them.
void expect_conv_inner_exact(const xasm::Program& prog, bool macro,
                             const std::string& name) {
  sim::SuperblockStats stats;
  const FinalState ref = run_prog(prog, true, false);
  const FinalState fast = run_prog(prog, false, false);
  const FinalState sb = run_prog(prog, false, true, &stats);
  ASSERT_EQ(ref.reason, sim::HaltReason::kEcall) << name;
  EXPECT_GT(stats.fused_iterations, 0u) << name;
  EXPECT_EQ(stats.macro_iterations,
            macro && sim::conv_macro_op_built() ? stats.fused_iterations : 0u)
      << name;
  expect_identical(ref, fast);
  expect_identical(ref, sb);
  if (::testing::Test::HasFailure()) FAIL() << name;
}

TEST(Superblock, ConvInnerShapeBitIdentical) {
  // The exact 2x2-blocked MatMul inner body the conv generator emits
  // (4 post-inc word loads + 4 accumulate-dots in the 2x2 operand
  // pattern): the shape the engine specializes into a single macro-op
  // handler. Byte and nibble element widths, both rs1 signednesses —
  // including the signed-activation nibble case that must fall back to
  // the generic fused path.
  using isa::SimdFmt;
  struct ShapeCase {
    const char* name;
    SimdFmt fmt;
    bool signed_a;  // rs1 (activation) operand signedness
    bool macro;     // expected to run through the macro-op
  };
  const ShapeCase cases[] = {
      {"sdotusp.b", SimdFmt::kB, false, true},
      {"sdotsp.b", SimdFmt::kB, true, true},
      {"sdotusp.n", SimdFmt::kN, false, true},
      {"sdotsp.n", SimdFmt::kN, true, false},
  };
  for (const ShapeCase& c : cases) {
    const xasm::Program prog = conv_inner_program(
        [&](xasm::Assembler& a, u8 rd, u8 x, u8 w) {
          if (c.signed_a) {
            a.pv_sdotsp(c.fmt, rd, x, w);
          } else {
            a.pv_sdotusp(c.fmt, rd, x, w);
          }
        },
        [](xasm::Assembler&) {});
    expect_conv_inner_exact(prog, c.macro, c.name);
  }
}

TEST(Superblock, ConvInnerMixedAndCrumbBitIdentical) {
  // The 2x2 body for every mixed accumulate-dot under every selector and
  // for the uniform crumb dots: the macro-op widens the mixed weight words
  // through the expander table (8x4 / 8x2 to bytes, 4x2 to nibbles) and
  // spreads crumbs to bytes. Signed-first 4x2 and crumb bodies must stay
  // on the generic fused loop (pmaddubsw takes an unsigned first operand).
  struct MixedCase {
    const char* name;
    void (xasm::Assembler::*emit)(u8, u8, u8);
    bool signed_a;
  };
  const MixedCase mixed_ops[] = {
      {"mlsdotup", &xasm::Assembler::pv_mlsdotup, false},
      {"mlsdotusp", &xasm::Assembler::pv_mlsdotusp, false},
      {"mlsdotsp", &xasm::Assembler::pv_mlsdotsp, true},
  };
  for (const MixedCase& op : mixed_ops) {
    for (u32 sel = 0; sel < isa::kMpcSelCount; ++sel) {
      const xasm::Program prog = conv_inner_program(
          [&](xasm::Assembler& a, u8 rd, u8 x, u8 w) {
            (a.*(op.emit))(rd, x, w);
          },
          [&](xasm::Assembler& a) {
            a.csrrwi(r::zero, isa::kMpcCsr, sel);
          });
      const bool nibble_kernel = isa::mixed_width_a(sel) == 4;
      expect_conv_inner_exact(
          prog, !(nibble_kernel && op.signed_a),
          std::string(op.name) + " sel " + std::to_string(sel));
    }
  }

  struct CrumbCase {
    const char* name;
    void (xasm::Assembler::*emit)(isa::SimdFmt, u8, u8, u8);
    bool signed_a;
  };
  const CrumbCase crumb_ops[] = {
      {"sdotup.c", &xasm::Assembler::pv_sdotup, false},
      {"sdotusp.c", &xasm::Assembler::pv_sdotusp, false},
      {"sdotsp.c", &xasm::Assembler::pv_sdotsp, true},
  };
  for (const CrumbCase& op : crumb_ops) {
    const xasm::Program prog = conv_inner_program(
        [&](xasm::Assembler& a, u8 rd, u8 x, u8 w) {
          (a.*(op.emit))(isa::SimdFmt::kC, rd, x, w);
        },
        [](xasm::Assembler&) {});
    expect_conv_inner_exact(prog, !op.signed_a, op.name);
  }
}

TEST(Superblock, MixedDotSweepBitIdentical) {
  // Every mixed mnemonic under every legal mpc selector, in the hot-loop
  // shape the engine fuses. The fused body bakes the selector at compile
  // time (SbOp::imm), so this exercises the baked path for all 18
  // combinations against the reference interpreter.
  struct OpCase {
    const char* name;
    void (xasm::Assembler::*emit)(u8, u8, u8);
  };
  const OpCase ops[] = {
      {"mldotup", &xasm::Assembler::pv_mldotup},
      {"mldotusp", &xasm::Assembler::pv_mldotusp},
      {"mldotsp", &xasm::Assembler::pv_mldotsp},
      {"mlsdotup", &xasm::Assembler::pv_mlsdotup},
      {"mlsdotusp", &xasm::Assembler::pv_mlsdotusp},
      {"mlsdotsp", &xasm::Assembler::pv_mlsdotsp},
  };
  for (const OpCase& op : ops) {
    for (u32 sel = 0; sel < 3; ++sel) {
      xasm::Assembler a(0);
      a.csrrwi(r::zero, isa::kMpcCsr, sel);
      a.li(r::s0, kData);
      a.li(r::a0, 0x1234);
      const xasm::Assembler::Label end = a.new_label();
      a.lp_setupi(0, 24, end);
      a.p_lw_post(r::t0, r::s0, 4);
      a.p_lw_post(r::t1, r::s0, 4);
      (a.*(op.emit))(r::a0, r::t0, r::t1);
      a.bind(end);
      a.ecall();
      const xasm::Program prog = a.finish();

      sim::SuperblockStats stats;
      const FinalState ref = run_prog(prog, true, false);
      const FinalState fast = run_prog(prog, false, false);
      const FinalState sb = run_prog(prog, false, true, &stats);
      ASSERT_EQ(ref.reason, sim::HaltReason::kEcall) << op.name;
      EXPECT_GT(stats.fused_iterations, 0u) << op.name << " sel " << sel;
      expect_identical(ref, fast);
      expect_identical(ref, sb);
      if (::testing::Test::HasFailure()) {
        FAIL() << op.name << " sel " << sel;
      }
    }
  }
}

/// The mpc-flip regression program: an outer loop re-enters the same hot
/// mixed hwloop with a different selector each pass, so a plan compiled
/// with one baked selector would misfuse on the next pass unless the CSR
/// write evicts it.
xasm::Program mpc_flip_program() {
  xasm::Assembler a(0);
  a.csrrwi(r::zero, isa::kMpcCsr, 0);
  a.li(r::s5, 3);  // one pass per selector
  a.li(r::s6, 0);  // next selector value
  a.li(r::a0, 0x55);
  const xasm::Assembler::Label outer = a.here();
  a.li(r::s0, kData);
  const xasm::Assembler::Label end = a.new_label();
  a.lp_setupi(0, 24, end);
  a.p_lw_post(r::t0, r::s0, 4);
  a.p_lw_post(r::t1, r::s0, 4);
  a.pv_mlsdotusp(r::a0, r::t0, r::t1);
  a.bind(end);
  a.addi(r::s6, r::s6, 1);               // 1, 2, 3 (3 never reaches a dot:
  a.csrrw(r::zero, isa::kMpcCsr, r::s6);  // the loop exits first)
  a.addi(r::s5, r::s5, -1);
  a.bne(r::s5, r::zero, outer);
  a.ecall();
  return a.finish();
}

TEST(Superblock, MpcFlipMidHotLoopEvictsAndStaysExact) {
  const xasm::Program prog = mpc_flip_program();
  sim::SuperblockStats stats;
  const FinalState ref = run_prog(prog, true, false);
  const FinalState fast = run_prog(prog, false, false);
  const FinalState sb = run_prog(prog, false, true, &stats);
  ASSERT_EQ(ref.reason, sim::HaltReason::kEcall);

  // The selector flip between passes must evict the baked plan (never
  // silently reuse it) and the engine recompiles for the next selector.
  EXPECT_GE(stats.mpc_evictions, 2u);
  EXPECT_GE(stats.blocks_compiled, 2u);
  EXPECT_GT(stats.fused_iterations, 0u);

  // All three dispatch modes agree bit-for-bit on the final state.
  expect_identical(ref, fast);
  expect_identical(ref, sb);
}

TEST(Superblock, MpcFlipReenters2x2MacroOpUnderEachSelector) {
  // The mpc-flip program over the 2x2-blocked conv body: each pass must
  // evict the plan compiled under the previous selector, recompile it
  // under the new one and run it through the macro-op again (unsigned
  // activations, so 4x2 takes the nibble kernel too).
  xasm::Assembler a(0);
  a.csrrwi(r::zero, isa::kMpcCsr, 0);
  a.li(r::s5, 3);  // one pass per selector
  a.li(r::s6, 0);  // next selector value
  for (u8 acc : {r::a4, r::a5, r::a6, r::a7}) a.li(acc, 0x55);
  const xasm::Assembler::Label outer = a.here();
  a.li(r::s0, kData);
  a.li(r::s1, kData + 0x100);
  const xasm::Assembler::Label end = a.new_label();
  a.lp_setupi(0, 24, end);
  a.p_lw_post(r::t0, r::s0, 4);
  a.p_lw_post(r::t1, r::s0, 4);
  a.p_lw_post(r::t2, r::s1, 4);
  a.p_lw_post(r::t3, r::s1, 4);
  a.pv_mlsdotusp(r::a4, r::t0, r::t2);
  a.pv_mlsdotusp(r::a5, r::t1, r::t2);
  a.pv_mlsdotusp(r::a6, r::t0, r::t3);
  a.pv_mlsdotusp(r::a7, r::t1, r::t3);
  a.bind(end);
  a.addi(r::s6, r::s6, 1);
  a.csrrw(r::zero, isa::kMpcCsr, r::s6);
  a.addi(r::s5, r::s5, -1);
  a.bne(r::s5, r::zero, outer);
  a.ecall();
  const xasm::Program prog = a.finish();

  sim::SuperblockStats stats;
  const FinalState ref = run_prog(prog, true, false);
  const FinalState fast = run_prog(prog, false, false);
  const FinalState sb = run_prog(prog, false, true, &stats);
  ASSERT_EQ(ref.reason, sim::HaltReason::kEcall);
  EXPECT_GE(stats.mpc_evictions, 2u);
  EXPECT_EQ(stats.blocks_compiled, 3u);  // one plan per selector
  // A pass retires at most 24 iterations, so more than two passes' worth
  // means every pass fused; all of them through the macro-op.
  EXPECT_GT(stats.fused_iterations, 2u * 24u);
  EXPECT_EQ(stats.macro_iterations,
            sim::conv_macro_op_built() ? stats.fused_iterations : 0u);
  for (u32 s = 0; s < isa::kMpcSelCount; ++s) {
    EXPECT_GT(sb.perf.mixed_dotp_ops[s], 0u) << "sel " << s;
  }
  expect_identical(ref, fast);
  expect_identical(ref, sb);
}

TEST(Superblock, CsrWriteInsideHotLoopNeverFuses) {
  // A loop body containing the mpc write itself is ineligible for fusion
  // (ExecClass::kCsr never fuses) — the engine must fall back to the
  // interpreter, not bake a selector that changes mid-burst.
  xasm::Assembler a(0);
  a.li(r::s0, kData);
  a.li(r::a0, 0);
  a.li(r::s6, 0);
  const xasm::Assembler::Label end = a.new_label();
  a.lp_setupi(0, 24, end);
  a.andi(r::s6, r::s6, 1);                // alternate selectors 0/1
  a.csrrw(r::zero, isa::kMpcCsr, r::s6);
  a.p_lw_post(r::t0, r::s0, 4);
  a.pv_mlsdotusp(r::a0, r::t0, r::t0);
  a.addi(r::s6, r::s6, 1);
  a.bind(end);
  a.ecall();
  const xasm::Program prog = a.finish();

  sim::SuperblockStats stats;
  const FinalState ref = run_prog(prog, true, false);
  const FinalState sb = run_prog(prog, false, true, &stats);
  ASSERT_EQ(ref.reason, sim::HaltReason::kEcall);
  EXPECT_EQ(stats.fused_iterations, 0u);
  expect_identical(ref, sb);
}

// ---- Content-addressed plans: one plan per distinct loop body ----

constexpr u32 kCopyIters = 8;

/// Runs `prog` in all three dispatch modes, checks they agree bit-for-bit,
/// and returns the superblock run with its engine statistics.
FinalState run_three_way(const xasm::Program& prog,
                         sim::SuperblockStats& stats) {
  const FinalState ref = run_prog(prog, true, false);
  const FinalState sb = run_prog(prog, false, true, &stats);
  EXPECT_EQ(ref.reason, sim::HaltReason::kEcall);
  expect_identical(ref, run_prog(prog, false, false));
  expect_identical(ref, sb);
  return sb;
}

/// One unrolled copy of the shared hwloop body (a post-increment load
/// feeding two ALU ops); every copy assembles to identical encodings.
/// Returns the address of the copy's addi.
addr_t emit_body_copy(xasm::Assembler& a) {
  const xasm::Assembler::Label end = a.new_label();
  a.lp_setupi(0, kCopyIters, end);
  a.p_lw_post(r::t0, r::s0, 4);
  const addr_t addi_at = a.current_addr();
  a.addi(r::a0, r::a0, 3);
  a.add(r::a1, r::a1, r::t0);
  a.bind(end);
  return addi_at;
}

u32 addi_word(u8 rd, u8 rs1, i32 imm) {
  isa::Instr in;
  in.op = isa::Mnemonic::kAddi;
  in.rd = rd;
  in.rs1 = rs1;
  in.imm = imm;
  return isa::encode(in);
}

/// Assembles `build(a, target)` until the address it reports for `target`
/// is a fixed point, so programs can li the address of their own code (the
/// li expansion, and with it the layout, depends on the value).
template <typename Build>
xasm::Program assemble_self_referencing(Build build) {
  addr_t target = 0;
  for (int pass = 0; pass < 4; ++pass) {
    xasm::Assembler a(0);
    const addr_t actual = build(a, target);
    if (actual == target) return a.finish();
    target = actual;
  }
  ADD_FAILURE() << "self-referencing layout did not converge";
  return xasm::Assembler(0).finish();
}

TEST(SuperblockPlanSharing, UnrolledCopiesCompileOnePlan) {
  constexpr u64 kCopies = 6;
  xasm::Assembler a(0);
  a.li(r::s0, kData);
  a.li(r::a0, 0);
  a.li(r::a1, 0);
  for (u64 c = 0; c < kCopies; ++c) emit_body_copy(a);
  a.ecall();
  const xasm::Program prog = a.finish();

  sim::SuperblockStats stats;
  run_three_way(prog, stats);
  // One compile; every other copy binds the same plan and fuses all of
  // its iterations from the lp.setup boundary on.
  EXPECT_EQ(stats.blocks_compiled, 1u);
  EXPECT_EQ(stats.plan_reuses, kCopies - 1);
  EXPECT_EQ(stats.compile_rejects, 0u);
  EXPECT_EQ(stats.entries, kCopies);
  EXPECT_EQ(stats.fused_iterations, kCopies * kCopyIters);
}

TEST(SuperblockPlanSharing, StoreIntoOneCopyEvictsOnlyItsBinding) {
  // Two passes over the same N copies; between them a store rewrites the
  // addi of copy k. Only k's binding goes: the other copies re-enter
  // through their existing bindings, and k rebinds — to a fresh plan when
  // the store changed its body, to the shared one when it rewrote
  // identical bytes.
  constexpr u64 kCopies = 5;
  constexpr u64 kPatched = 2;
  for (const bool changes_body : {true, false}) {
    const u32 patch = addi_word(r::a0, r::a0, changes_body ? 9 : 3);
    const xasm::Program prog = assemble_self_referencing(
        [&](xasm::Assembler& a, addr_t target) {
          a.li(r::s0, kData);
          a.li(r::a0, 0);
          a.li(r::a1, 0);
          a.li(r::s5, 2);  // passes
          a.li(r::t5, static_cast<i32>(patch));
          a.li(r::t6, static_cast<i32>(target));
          const xasm::Assembler::Label outer = a.here();
          const xasm::Assembler::Label done = a.new_label();
          addr_t addi_k = 0;
          for (u64 c = 0; c < kCopies; ++c) {
            const addr_t at = emit_body_copy(a);
            if (c == kPatched) addi_k = at;
          }
          a.addi(r::s5, r::s5, -1);
          a.beq(r::s5, r::zero, done);
          a.sw(r::t5, r::t6, 0);
          a.j(outer);
          a.bind(done);
          a.ecall();
          return addi_k;
        });

    sim::SuperblockStats stats;
    const FinalState sb = run_three_way(prog, stats);
    const u32 second = changes_body ? 9 : 3;
    EXPECT_EQ(sb.regs[r::a0],
              kCopyIters * (2 * kCopies * 3 - 3 + second));
    EXPECT_EQ(stats.invalidations, 1u);
    EXPECT_EQ(stats.entries, 2 * kCopies);  // every copy fused, both passes
    EXPECT_EQ(stats.fused_iterations, 2 * kCopies * kCopyIters);
    EXPECT_EQ(stats.blocks_compiled, changes_body ? 2u : 1u);
    EXPECT_EQ(stats.plan_reuses, changes_body ? kCopies - 1 : kCopies);
    if (::testing::Test::HasFailure()) FAIL() << "changes_body " << changes_body;
  }
}

TEST(SuperblockPlanSharing, SelfModifyingStoreIntoLiveCopy) {
  // Every copy's body stores first, then adds. Copy k's store targets its
  // own addi (the other copies store into scratch memory), so its burst
  // bails after the store, before the stale addi, the interpreter runs the
  // patched addi, and the remaining iterations fuse under a plan of the
  // patched body. The shared
  // plan must survive for the copies still bound to it — and when k is
  // the only copy bound so far, it is freed at burst exit and recompiled
  // for the copies after k.
  constexpr u64 kCopies = 4;
  constexpr i32 kStride = 2040;  // later stores land past the code
  constexpr addr_t kScratch = 0x4000;
  const u32 patch = addi_word(r::a0, r::a0, 9);
  for (const u64 k : {u64{0}, u64{2}, kCopies - 1}) {
    const xasm::Program prog = assemble_self_referencing(
        [&](xasm::Assembler& a, addr_t target) {
          a.li(r::a0, 0);
          a.li(r::t5, static_cast<i32>(patch));
          addr_t addi_k = 0;
          for (u64 c = 0; c < kCopies; ++c) {
            a.li(r::t6, static_cast<i32>(c == k ? target : kScratch));
            const xasm::Assembler::Label end = a.new_label();
            a.lp_setupi(0, kCopyIters, end);
            a.p_sw_post(r::t5, r::t6, kStride);
            if (c == k) addi_k = a.current_addr();
            a.addi(r::a0, r::a0, 3);
            a.bind(end);
          }
          a.ecall();
          return addi_k;
        });

    sim::SuperblockStats stats;
    const FinalState sb = run_three_way(prog, stats);
    // The store precedes the addi, so copy k adds 9 from its first
    // iteration on.
    EXPECT_EQ(sb.regs[r::a0], (kCopies - 1) * kCopyIters * 3 + kCopyIters * 9);
    EXPECT_EQ(stats.smc_bails, 1u);
    EXPECT_EQ(stats.entries, kCopies + 1);  // copy k re-enters once
    // k == 0: the shared plan dies with its only binding and copy 1
    // compiles it again; otherwise every copy but the first reuses it.
    EXPECT_EQ(stats.blocks_compiled, k == 0 ? 3u : 2u);
    EXPECT_EQ(stats.plan_reuses, k == 0 ? kCopies - 2 : kCopies - 1);
    if (::testing::Test::HasFailure()) FAIL() << "live copy " << k;
  }
}

TEST(SuperblockPlanSharing, MpcWriteEvictsMixedPlanAtEveryCopy) {
  // Two passes over N copies of a mixed-dot body, the selector changing
  // after each: every pass compiles one plan for its selector and binds
  // it at all N copies, and each mpc write evicts all N bindings.
  constexpr u64 kCopies = 4;
  xasm::Assembler a(0);
  a.csrrwi(r::zero, isa::kMpcCsr, 0);
  a.li(r::s5, 2);  // passes
  a.li(r::s6, 0);  // next selector value
  a.li(r::a0, 0x55);
  const xasm::Assembler::Label outer = a.here();
  a.li(r::s0, kData);
  for (u64 c = 0; c < kCopies; ++c) {
    const xasm::Assembler::Label end = a.new_label();
    a.lp_setupi(0, kCopyIters, end);
    a.p_lw_post(r::t0, r::s0, 4);
    a.p_lw_post(r::t1, r::s0, 4);
    a.pv_mlsdotusp(r::a0, r::t0, r::t1);
    a.bind(end);
  }
  a.addi(r::s6, r::s6, 1);
  a.csrrw(r::zero, isa::kMpcCsr, r::s6);
  a.addi(r::s5, r::s5, -1);
  a.bne(r::s5, r::zero, outer);
  a.ecall();
  const xasm::Program prog = a.finish();

  sim::SuperblockStats stats;
  run_three_way(prog, stats);
  EXPECT_EQ(stats.mpc_evictions, 2 * kCopies);
  EXPECT_EQ(stats.blocks_compiled, 2u);
  EXPECT_EQ(stats.plan_reuses, 2 * (kCopies - 1));
  EXPECT_EQ(stats.entries, 2 * kCopies);
}

TEST(SuperblockPlanSharing, AuipcBodyKeepsPerCopyValue) {
  // auipc bakes its pc-relative value at compile time, so identical
  // encodings at two addresses must not share a plan.
  xasm::Assembler a(0);
  a.li(r::a0, 0);
  addr_t auipc_at[2] = {};
  for (addr_t& at : auipc_at) {
    const xasm::Assembler::Label end = a.new_label();
    a.lp_setupi(0, kCopyIters, end);
    at = a.current_addr();
    a.auipc(r::t1, 0x1000);
    a.add(r::a0, r::a0, r::t1);
    a.bind(end);
  }
  a.ecall();
  const xasm::Program prog = a.finish();

  sim::SuperblockStats stats;
  const FinalState sb = run_three_way(prog, stats);
  EXPECT_EQ(sb.regs[r::a0],
            kCopyIters * (auipc_at[0] + 0x1000 + auipc_at[1] + 0x1000));
  EXPECT_EQ(stats.blocks_compiled, 2u);
  EXPECT_EQ(stats.plan_reuses, 0u);
  EXPECT_EQ(stats.fused_iterations, 2 * kCopyIters);
}

}  // namespace
}  // namespace xpulp
