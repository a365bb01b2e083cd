// Trace-compiled superblock execution (DESIGN.md §12).
//
// The fast interpreter still pays per-instruction dispatch, hazard checks
// and counter updates inside the tiny hardware-loop bodies that dominate
// the paper's kernels (2 loads + 4 pv.sdot per MatMul inner iteration). A
// superblock "compiles" such a hot straight-line region into a flat
// SuperblockPlan — decoded operands pinned in a compact op array, one
// fused C++ loop executing whole iterations, and the static part of the
// PerfCounters/MemStats accounting applied as one batched per-iteration
// delta. Dynamic effects (memory stalls, load-data toggles, division
// latency, dot-product activity, self-modifying-store invalidation) stay
// eager so every exit lands on a bit-exact instruction boundary.
//
// Plans are content-addressed: a plan stores every pc-dependent field as
// an offset from its entry, so one plan serves every copy of a body (the
// conv generator unrolls one loop body per output block). The core binds
// entry pcs to shared plans; see DESIGN.md §12 for the invalidation rules.
//
// Detection, compilation, execution and invalidation live in
// superblock.cpp as Core member functions; this header only defines the
// plan layout so core.hpp can hold the cache by forward declaration.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "isa/instruction.hpp"
#include "mem/memory.hpp"
#include "sim/core.hpp"

namespace xpulp::sim {

/// True when this build carries the host-SIMD kConvInner macro-op (x86
/// with SSE4.1); elsewhere every fused body runs the generic loop.
bool conv_macro_op_built();

/// How the fused loop executes one op. Fully-inlined kinds batch their
/// class counter in the static per-iteration delta; the remaining kinds
/// call the existing exec helpers, which charge class counters (and any
/// static stalls such as mulh latency) eagerly.
enum class SbKind : u8 {
  kConst,    // lui / auipc: value precomputed at compile time
  kAddImm,   // addi
  kAluImm,   // other immediate ALU ops via alu_body
  kAluReg,   // register ALU ops via alu_body
  kMac,      // p.mac / p.msu
  kMem,      // every load/store addressing mode, flags-driven
  kDotp,     // pv.dotp/sdot families via the dotp_lanes kernel
  kHandler,  // muldiv / pulp-scalar / simd-alu / simd-elem / pv.qnt
  kBranch,   // terminal conditional branch (backward-branch plans only)
};

/// Recognized whole-iteration shapes. kConvInner is the 2x2-blocked
/// MatMul inner body every conv kernel in this repo emits (4 post-inc
/// word loads feeding 4 accumulate-dots over 2 activation x 2 weight
/// words); sb_execute runs it through a macro-op handler that widens each
/// operand word once and computes all four dot products in two SIMD
/// multiply-accumulate steps. Which widening runs is the plan's
/// SbConvLanes, chosen at compile time.
///
/// What stays on the generic fused loop: non-2x2 bodies (1-pixel bodies,
/// linear layers), signed-first nibble and crumb dots (the nibble and
/// crumb kernels multiply through pmaddubsw, whose first operand is
/// unsigned) including signed-first mixed 4x2, and 16-bit dots. The
/// generic loop's kDotp op shares the mixed-weight expander table.
enum class SbShape : u8 {
  kGeneric = 0,
  kConvInner,
};

/// Lane kernel of a kConvInner plan, keyed by the dots' format or, for
/// mixed dots (pv.mlsdot*), by the baked mpc selector. Mixed weight words
/// are widened through a 256-entry table keyed by (selector, weight
/// sign): the low 4 nibbles (8x4) or crumbs (8x2) become 4 sign- or
/// zero-extended bytes, the low 8 crumbs (4x2) become 8 nibbles. The
/// activation-width kernel then runs unchanged on the widened word.
enum class SbConvLanes : u8 {
  kBytes,         // .b: bytes widened to 16 bits, pmaddwd; any signs
  kNibbles,       // .n: nibbles spread to bytes, pmaddubsw; unsigned rs1
  kCrumbs,        // .c: 16 crumbs spread to bytes, pmaddubsw; unsigned rs1
  kMixedBytes,    // mpc 8x4 / 8x2: weights widened to bytes, then kBytes
  kMixedNibbles,  // mpc 4x2: weights widened to nibbles, then kNibbles
};

struct SbOp {
  SbKind kind = SbKind::kHandler;
  u8 rd = 0;
  u8 rs1 = 0;
  u8 rs2 = 0;
  /// kMem: access size in bytes. kDotp: multiplier region (DotpRegion
  /// numbering). kMac: 1 for p.msu.
  u8 aux = 0;
  /// Static load-use stall cycles against the previous op in the block
  /// (op[0]'s hazard against the entry context is dynamic, see
  /// SuperblockPlan::wrap_hazard).
  u8 hazard = 0;
  u16 flags = 0;  // iflag:: bits from the decode
  isa::SimdFmt fmt = isa::SimdFmt::kNone;
  isa::ExecClass cls = isa::ExecClass::kIllegal;
  isa::Mnemonic op{};
  /// Immediate operand; kConst: the precomputed result value; kBranch
  /// p.beqimm/p.bneimm: the sign-extended compare immediate.
  i32 imm = 0;
};

/// Content address of a plan: the only inputs a compiled plan depends on
/// besides the core's timing model (fixed per core) and feature guard
/// (changing it clears the whole table, see Core::set_isa_features).
struct SbKey {
  /// Raw encodings of the body, then of the terminal branch (branch plans).
  std::vector<u32> raw;
  /// Entry pc when the body holds an auipc (its value is pc-relative and
  /// baked at compile time), else 0.
  addr_t pc = 0;
  /// Baked mpc selector when the body holds a mixed dot, else 0.
  u8 mpc = 0;
  bool is_hwloop = true;

  bool operator==(const SbKey&) const = default;
  u64 hash() const;
};

/// A compiled superblock: one hot straight-line region plus everything the
/// fused loop needs to retire whole iterations without touching the
/// decoder or the handler table. Position-free: code addresses are offsets
/// from the entry pc the burst runs at. Host-side state only — never
/// serialized; checkpoints restore into an empty cache and recompile
/// lazily.
struct SuperblockPlan {
  SbKey key;
  /// Entry pcs bound to this plan. At zero the plan is freed — deferred to
  /// burst exit when the fused loop is executing it (self-modifying store).
  u32 refs = 0;
  addr_t len = 0;  // entry to one past the last code byte (bail boundary)
  bool is_hwloop = true;

  std::vector<SbOp> ops;           // straight-line body, no control flow
  std::vector<isa::Instr> instrs;  // parallel cold mirror for kHandler ops
  /// ops.size()+1 entries: the entry offset of each op, then of the
  /// boundary after the body (hwloop: the loop end; branch plans: the
  /// branch).
  std::vector<addr_t> op_off;
  SbOp branch{};  // branch plans: the terminal conditional branch

  /// prefix[i] = batched static deltas of ops [0, i) — the repair applied
  /// when a memory fault or self-modifying store exits mid-iteration.
  std::vector<PerfCounters> perf_prefix;
  std::vector<mem::MemStats> mem_prefix;
  PerfCounters iter_perf;  // one full iteration (hwloop body / branch taken)
  PerfCounters exit_perf;  // branch plans: final, not-taken iteration
  mem::MemStats iter_mem;

  /// Load-use stall of op[0] against the block's last op — static for
  /// every iteration after the first (the first checks the live
  /// last-load register at entry).
  u8 wrap_hazard = 0;
  /// Multiplier region shared by every kDotp op in the block, 0xff when
  /// none or mixed. A single-region block lets the fused loop keep that
  /// region's operand latches in host registers for the whole burst.
  u8 dotp_region = 0xff;
  /// Whole-iteration specialization selected at compile time.
  SbShape shape = SbShape::kGeneric;
  /// kConvInner: the lane kernel its dots run through.
  SbConvLanes conv_lanes = SbConvLanes::kBytes;
  /// The plan contains mixed dot products (pv.mldot*/pv.mlsdot*) whose
  /// operand formats were baked from the precision-status CSR at compile
  /// time. Any value-changing mpc write evicts such plans; the entry guard
  /// additionally rejects on a live-value mismatch so a stale plan can
  /// never silently misfuse.
  bool uses_mixed = false;
  u8 baked_mpc = 0;
  /// last_load_rd_ after a completed iteration (loads feed the hazard
  /// check of whatever the interpreter executes next).
  u8 exit_last_load_rd = 0;

  /// Upper bound on the *dynamic* cycles one iteration can add in slim
  /// memory mode (no access hook, no contention injector): misaligned
  /// access penalties, divide latency, quantization threshold walks.
  /// Sampled bursts use it to prove an iteration cannot cross the
  /// sampling deadline and skip the per-op boundary checks (an
  /// over-estimate only costs a checked iteration, never a missed
  /// sample).
  u64 max_dyn_iter = 0;
};

}  // namespace xpulp::sim
