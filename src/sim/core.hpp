// Cycle-approximate model of the RI5CY core with the XpulpV2 and XpulpNN
// extensions. Two configurations reproduce the paper's platforms:
//   - baseline RI5CY: CoreConfig::ri5cy()       (XpulpV2, no sub-byte SIMD)
//   - extended core:  CoreConfig::extended()    (XpulpV2 + XpulpNN)
// The `clock_gating` knob models the power-management design of §III-B
// (input operand registers + clock gating in the dot-product unit, operand
// isolation in the quantization unit); it changes the activity statistics
// consumed by the power model, not functional behaviour or cycle counts.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "isa/instruction.hpp"
#include "mem/memory.hpp"
#include "sim/dotp_unit.hpp"
#include "sim/quant_unit.hpp"
#include "sim/timing.hpp"

namespace xpulp::sim {

struct SuperblockPlan;  // sim/superblock.hpp (host-side compiled blocks)

struct CoreConfig {
  bool xpulpv2 = true;    // hardware loops, post-inc LSU, 8/16-bit SIMD, MAC
  bool xpulpnn = true;    // nibble/crumb SIMD + pv.qnt
  bool hwloops = true;    // can be disabled separately for ablations
  bool clock_gating = true;
  /// Use the legacy switch-on-mnemonic interpreter instead of the
  /// predecoded handler-table fast path. Functionally and cycle-wise
  /// identical (enforced by the differential dispatch test); kept as the
  /// reference implementation and as the baseline of the host-throughput
  /// bench.
  bool reference_dispatch = false;
  /// Trace-compiled superblock execution of hot loop bodies on top of the
  /// fast path (DESIGN.md §12): bit-identical state and PerfCounters,
  /// enforced by the three-way differential dispatch test. Requires the
  /// fast dispatch path and clock gating (the ungated operand-broadcast
  /// model is inherently per-instruction); the engine simply stays cold
  /// when either is off. On by default; false pins the plain fast path.
  bool superblock = true;
  std::string name = "xpulpnn";

  static CoreConfig extended() { return CoreConfig{}; }

  static CoreConfig ri5cy() {
    CoreConfig c;
    c.xpulpnn = false;
    c.name = "ri5cy";
    return c;
  }
};

struct PerfCounters {
  cycles_t cycles = 0;
  u64 instructions = 0;

  u64 taken_branches = 0;
  u64 not_taken_branches = 0;
  u64 jumps = 0;
  u64 branch_stall_cycles = 0;
  u64 load_use_stall_cycles = 0;
  u64 mem_stall_cycles = 0;
  u64 mul_div_stall_cycles = 0;
  u64 hwloop_backedges = 0;

  u64 loads = 0;
  u64 stores = 0;
  u64 scalar_alu_ops = 0;
  u64 mul_ops = 0;
  u64 div_ops = 0;
  u64 simd_alu_ops = 0;
  u64 qnt_ops = 0;
  u64 qnt_stall_cycles = 0;
  u64 csr_ops = 0;
  /// fence / ecall / ebreak retires.
  u64 sys_ops = 0;
  /// p.mac / p.msu retires. These also count in both mul_ops (they use the
  /// multiplier) and scalar_alu_ops (they retire through the scalar ALU
  /// path), so class sums subtract mac_ops once to avoid double counting.
  u64 mac_ops = 0;

  /// Dot-product ops by multiplier region {16, 8, 4, 2}-bit.
  std::array<u64, 4> dotp_ops{};

  /// Mixed virtual dot products by mpc selector {8x4, 8x2, 4x2}.
  /// Reporting breakdown only: each mixed op also counts in dotp_ops of
  /// the region its wide operand drives, which is what perf_class_ops and
  /// the cycle invariants consume.
  std::array<u64, 3> mixed_dotp_ops{};

  /// Hamming toggles of successive load data words on the LSU result bus.
  /// The quantization unit's comparators hang off this bus; with operand
  /// isolation disabled (no power management) they switch with every load.
  u64 lsu_data_toggles = 0;

  bool operator==(const PerfCounters&) const = default;
};

/// Sum of the per-cause stall counters.
inline u64 perf_stall_cycles(const PerfCounters& p) {
  return p.branch_stall_cycles + p.load_use_stall_cycles +
         p.mem_stall_cycles + p.mul_div_stall_cycles + p.qnt_stall_cycles;
}

/// Sum of the instruction-class counters. Every retired instruction
/// increments exactly one of these (p.mac/p.msu count in both mul_ops and
/// scalar_alu_ops, hence the mac_ops correction).
inline u64 perf_class_ops(const PerfCounters& p) {
  u64 dotp = 0;
  for (u64 d : p.dotp_ops) dotp += d;
  return p.taken_branches + p.not_taken_branches + p.jumps + p.loads +
         p.stores + p.scalar_alu_ops + (p.mul_ops - p.mac_ops) + p.div_ops +
         p.simd_alu_ops + dotp + p.qnt_ops + p.csr_ops + p.sys_ops;
}

/// Accounting self-check for a run that ended cleanly (no mid-instruction
/// fault): every cycle is either an instruction's base cycle or attributed
/// to exactly one stall cause, and every instruction to exactly one class.
/// Returns an empty string when the invariants hold, else a diagnostic.
std::string perf_invariant_violation(const PerfCounters& p);

/// Coverage/fallback counters of the superblock engine (host-side only,
/// not part of CoreState). `fused_instructions / perf.instructions` is the
/// hit rate; the bail counters attribute every fallback to its cause.
struct SuperblockStats {
  u64 blocks_compiled = 0;   // plans actually compiled
  /// Entry pcs bound to an already-compiled plan of identical content (an
  /// unrolled copy of a body) instead of compiling a new one.
  u64 plan_reuses = 0;
  u64 compile_rejects = 0;   // regions that failed static eligibility
  u64 entries = 0;           // fused bursts entered
  u64 entry_rejects = 0;     // guard failures at entry (interpreter ran)
  u64 fused_iterations = 0;  // whole loop iterations retired fused
  u64 fused_instructions = 0;
  /// Fused iterations retired by the kConvInner macro-op handler (a subset
  /// of fused_iterations; each retires kMacroIterationOps instructions).
  u64 macro_iterations = 0;
  static constexpr u64 kMacroIterationOps = 8;
  u64 smc_bails = 0;   // self-modifying store hit the live block
  u64 trap_bails = 0;  // memory fault repaired to an exact boundary
  u64 invalidations = 0;  // bindings evicted by stores / cache flushes
  /// Bindings evicted because a write to the mpc CSR changed the selector
  /// their fused mixed dot ops had baked in (demote-and-recompile, never
  /// silently misfuse).
  u64 mpc_evictions = 0;
  /// Bursts repaired to an exact instruction boundary because the cycle
  /// counter crossed a sampling deadline mid-burst (xtel). Uses the same
  /// prefix-delta repair tables as smc_bails, so the surfaced counters are
  /// bit-identical to the interpreter's at that boundary.
  u64 sample_flushes = 0;
  /// Bursts repaired to an exact instruction boundary because the cycle
  /// counter reached a cluster burst horizon (run_burst). Same repair
  /// mechanism as sample_flushes; counted separately so burst-scheduling
  /// stats don't pollute telemetry flush counts.
  u64 burst_flushes = 0;
  /// Burst entries refused because the plan's code straddles a boundary
  /// of the attached region table (set_region_attribution): a fused burst
  /// banks all of its cost into one region, so a multi-region plan runs
  /// interpreted instead. Zero whenever no table is attached.
  u64 region_rejects = 0;

  bool operator==(const SuperblockStats&) const = default;
};

/// Cost attributed to one code region by the core's in-loop region
/// attribution: the PerfCounters deltas charged while the pc was inside
/// the region, with the same per-cause stall split as obs::StallBreakdown.
struct RegionCounters {
  u64 instructions = 0;
  cycles_t cycles = 0;
  u64 branch = 0;
  u64 load_use = 0;
  u64 mem = 0;
  u64 mul_div = 0;
  u64 qnt = 0;

  bool operator==(const RegionCounters&) const = default;
};

enum class HaltReason { kRunning, kEcall, kEbreak, kInstrLimit };

/// One data access recorded for deferred arbitration (cluster burst
/// scheduling): the exact coordinates the access hook would have observed —
/// the issuing instruction's pc and start cycle (the event-driven
/// scheduler's pick key) and the access's own cycle — all in the core's
/// pre-merge local clock, plus the access itself.
/// The access cycle is stored as its offset from `start` — the reference
/// charges arbiter stalls at the issuing instruction's end, so an access
/// never issues more than one instruction's own latency past its start
/// (hazards plus handler-internal charges, far below 2^16). Keeping the
/// record at 24 bytes matters: burst logs are written and re-read by the
/// millions, and their cache footprint is the dominant host cost of the
/// cluster burst scheduler.
struct BurstAccess {
  cycles_t start;
  addr_t pc;
  addr_t addr;
  u16 cycle_delta;
  u8 size;
  u8 is_store;
};

/// Complete architectural + accounting state of a Core at an instruction
/// boundary: everything needed to resume execution bit-identically (checked
/// by the differential snapshot tests on both dispatch paths). The decode
/// cache is deliberately absent — it is a host-side optimization that is
/// rebuilt on demand and must be invalidated whenever memory is restored
/// underneath the core.
struct CoreState {
  std::array<u32, 32> regs{};
  addr_t pc = 0;
  std::array<addr_t, 2> hwl_start{};
  std::array<addr_t, 2> hwl_end{};
  std::array<u32, 2> hwl_count{};
  u8 last_load_rd = 0;
  u32 last_load_data = 0;
  HaltReason halt = HaltReason::kRunning;
  u32 mscratch = 0;
  /// Precision-status CSR (mpc, 0x7C1): operand-format selector of the
  /// mixed virtual dot products. WARL, low two bits.
  u32 mpc = 0;
  PerfCounters perf;
  DotpState dotp;
};

class Core {
 public:
  Core(mem::Memory& mem, CoreConfig cfg = CoreConfig::extended());
  ~Core();  // out of line: SuperblockPlan is incomplete here

  /// Reset architectural state and start executing at `pc`. Clears the
  /// decode cache (call after loading a new program image). When
  /// `code_end` (one past the last code byte) is nonzero the decode cache
  /// is based at `pc` and pre-sized to cover [pc, code_end), so the hot
  /// loop never resizes; code below `pc` still runs (the cache rebases
  /// down on first fetch). With `code_end == 0` the cache is based at 0.
  /// Programs are entered at their base (xasm::Program::entry()).
  /// Together with reset_perf() it leaves a core that counts exactly like
  /// a freshly constructed one: the LSU data latch, mscratch and the dot
  /// unit's operand latches are cleared too.
  void reset(addr_t pc, addr_t code_end = 0);

  u32 reg(unsigned r) const { return regs_[r & 31]; }
  void set_reg(unsigned r, u32 v) {
    if ((r & 31) != 0) regs_[r & 31] = v;
  }

  addr_t pc() const { return pc_; }
  bool halted() const { return halt_ != HaltReason::kRunning; }
  HaltReason halt_reason() const { return halt_; }

  /// Execute one instruction. Returns false once halted.
  bool step();

  /// Run until ecall/ebreak or the instruction limit; returns the reason.
  HaltReason run(u64 max_instructions = 400'000'000);

  /// Execute up to `n` instructions (stopping early on halt) and return
  /// how many retired. Runs the same loops as run() — fast path plus
  /// superblock bursts, or the reference loop — but reaching `n` does not
  /// set the kInstrLimit halt reason: the core pauses at an exact
  /// instruction boundary, which is what checkpoint and fault-injection
  /// tooling needs to position snapshots and faults at precise indices
  /// (a fused burst never overshoots the remaining budget).
  u64 run_steps(u64 n);

  /// Execute until the first instruction boundary whose cycle count is at
  /// or past `horizon` (the final instruction may overshoot by its own
  /// latency), the core halts, or `max_instructions` retired; returns how
  /// many retired (0 when the cycle count is already at or past the
  /// horizon). The same loops as run(), with the horizon folded into the
  /// deadline they already compare for the sampler; fused superblock
  /// bursts honor it through the same repair mechanism
  /// (SuperblockStats::burst_flushes), so the cluster burst scheduler can
  /// drain a core to a cycle horizon at full dispatch speed. Never sets
  /// kInstrLimit; the horizon is cleared on every exit, guest faults
  /// included.
  u64 run_burst(cycles_t horizon, u64 max_instructions);

  const PerfCounters& perf() const { return perf_; }
  /// Zero the perf counters and the dot unit's activity counters.
  void reset_perf();

  const CoreConfig& config() const { return cfg_; }
  mem::Memory& memory() { return mem_; }
  DotpUnit& dotp_unit() { return dotp_; }
  const DotpUnit& dotp_unit() const { return dotp_; }
  const TimingModel& timing() const { return timing_; }

  /// Optional per-instruction trace hook (pc, decoded instruction), invoked
  /// at the start of each instruction, before its stalls and effects are
  /// charged. Return true to stay attached; returning false detaches the
  /// hook after the call returns (the traced run loop then drops back to
  /// the zero-overhead untraced loop). Never reassign the hook from inside
  /// the callback — the core owns that transition.
  using TraceFn = std::function<bool(addr_t, const isa::Instr&)>;
  void set_trace(TraceFn fn) { trace_ = std::move(fn); }
  bool has_trace() const { return static_cast<bool>(trace_); }

  /// Optional telemetry sampling hook (obs::Sampler): invoked at the first
  /// instruction boundary where the cycle counter has reached the next
  /// multiple of `interval_cycles`, on every dispatch path — reference,
  /// fast, and superblock bursts (which repair to the exact boundary, see
  /// SuperblockStats::sample_flushes) — so all three produce identical
  /// sample series. Unlike the trace hook it does not keep the superblock
  /// engine cold. Detached cost contract: run() dispatches to a loop
  /// without the deadline compare, so no-sampler runs are bit-identical in
  /// host cost to a build without the hook (guarded by
  /// bench_sim_throughput --guard-sampler). Attach/detach only at an
  /// instruction boundary outside run().
  using SampleFn = std::function<void()>;
  void set_sampler(SampleFn fn, cycles_t interval_cycles);
  bool has_sampler() const { return static_cast<bool>(sampler_); }
  cycles_t sample_interval() const { return sample_interval_; }
  /// First instruction boundary cycle at which the sampler will fire next
  /// (~0 when no sampler is attached). The cluster burst scheduler bounds
  /// burst horizons away from this so samples fire on the exact reference
  /// boundary.
  cycles_t next_sample_due() const { return sample_due_; }

  /// Trace-free region attribution (DESIGN.md §10): `parcel_regions[pc >>
  /// 1]` names the region (0 .. n_regions-1, or negative for none) of
  /// every code parcel — obs::RegionMap::build_index() builds one. The
  /// core then charges every PerfCounters delta to the region of the
  /// instruction that caused it, exactly as obs::Profiler's trace hook
  /// would, but from inside the dispatch loops: reference, fast and
  /// superblock, through run(), run_steps(), run_burst() and step().
  /// Pcs without a region, or past the table, go to a trailing "other"
  /// bucket (index n_regions). The loops compare the pc against the
  /// current region run and bank the counter delta only when the region
  /// changes; a superblock plan that straddles a region boundary is
  /// refused (SuperblockStats::region_rejects) rather than mis-attributed.
  /// Detached cost contract: without a table, run() dispatches to the same
  /// loops as before attribution existed (guarded by bench_sim_throughput
  /// --guard-attribution). Attaching resets the totals. Attach/detach only
  /// at an instruction boundary outside run().
  void set_region_attribution(std::vector<int> parcel_regions, int n_regions);
  void clear_region_attribution();
  bool has_region_attribution() const { return attr_ != nullptr; }
  /// Totals per region since attach, "other" last; includes the counters
  /// charged since the last region switch. Host-side accounting only, like
  /// SuperblockStats: not part of CoreState. reset_perf() and
  /// restore_state() keep the totals (they only rebase the next delta).
  std::vector<RegionCounters> region_attribution() const;

  /// Exact reference-interleaving coordinates of the data access currently
  /// flowing through the memory access hook: the pc of the accessing
  /// instruction, the cycle at which that instruction started (the
  /// event-driven scheduler's pick key), and the cycle at which the access
  /// reaches the interconnect. Valid only from inside an access hook. On
  /// the interpreter paths these are live core state; inside a fused
  /// superblock burst they come from a per-op latch that folds in the
  /// batched static cycle deltas, so the values are bit-identical to what
  /// the interpreter would have reported for the same access.
  addr_t access_pc() const { return sb_active_ != nullptr ? hook_pc_ : pc_; }
  cycles_t access_start() const {
    return sb_active_ != nullptr ? hook_start_ : step_start_;
  }
  cycles_t access_cycle() const {
    return sb_active_ != nullptr ? hook_cycle_ : perf_.cycles;
  }

  /// Deferred-arbitration support (cluster burst scheduling): charge `n`
  /// interconnect stall cycles exactly as an access hook returning them at
  /// access time would have (cycles + mem_stall_cycles; the shared
  /// MemStats side is Memory::add_contention_stalls). Only valid at an
  /// instruction boundary.
  void charge_deferred_stalls(u64 n) {
    perf_.cycles += n;
    perf_.mem_stall_cycles += n;
  }

  /// Direct-log sink for deferred arbitration: while set, the superblock
  /// slim path appends each aligned in-bounds data access here — with the
  /// same exact coordinates the hook latches would report — instead of
  /// routing it through the memory access hook, and treats the hook as
  /// stall-free for its per-iteration dynamic bound. Only meaningful when
  /// the installed access hook itself logs-and-returns-zero (the cluster's
  /// burst phase); accesses outside the slim fast path (interpreter steps,
  /// misaligned, handler-internal) still flow through that hook, appending
  /// to the same vector in program order.
  void set_burst_sink(std::vector<BurstAccess>* sink) { burst_sink_ = sink; }

  /// Optional pre-run gate: invoked by reset(pc, code_end) with the loaded
  /// memory and the code extent [pc, code_end) whenever code_end is
  /// nonzero, *before* any instruction executes. The static analyzer
  /// (analysis::make_pre_run_gate) installs itself here; a gate vetoes the
  /// run by throwing.
  using PreRunGate =
      std::function<void(const mem::Memory&, addr_t entry, addr_t code_end)>;
  void set_pre_run_gate(PreRunGate g) { pre_run_gate_ = std::move(g); }

  /// Switch between the handler-table fast path and the legacy reference
  /// switch interpreter at runtime (differential tests flip this).
  void set_reference_dispatch(bool on) { ref_dispatch_ = on; }
  bool reference_dispatch() const { return ref_dispatch_; }

  /// Enable/disable superblock execution at runtime (differential tests
  /// and benches flip this like set_reference_dispatch). Compiled plans
  /// are kept — disabling only stops new bursts from being entered.
  void set_superblock(bool on);
  bool superblock_enabled() const { return cfg_.superblock; }

  const SuperblockStats& superblock_stats() const { return sb_stats_; }
  void reset_superblock_stats() { sb_stats_ = SuperblockStats{}; }

  // ---- Snapshot/restore (src/ckpt) ----

  /// Capture the full architectural + accounting state. Only meaningful at
  /// an instruction boundary (between step() calls / after run() returns).
  CoreState save_state() const;

  /// Restore a previously captured state. Does not touch the decode cache:
  /// call invalidate_decode_cache() as well whenever the backing memory
  /// was restored or mutated from the host side.
  void restore_state(const CoreState& s);

  /// Drop every cached decode (host-side corruption of instruction memory,
  /// memory restore). Bumps the decode generation.
  void invalidate_decode_cache();

  /// Decode-cache extent in 16-bit parcels, starting at the program's
  /// entry (diagnostic: a cluster core caches only its own program).
  size_t decode_cache_parcels() const { return icache_.size(); }

  /// Number of whole-cache invalidations (reset/restore/host pokes) this
  /// core has seen — diagnostic for checkpoint/fault reports.
  u64 decode_generation() const { return decode_gen_; }

  /// Degrade (or re-enable) ISA tiers at run time — the fault-injection
  /// model of a failing XpulpNN/XpulpV2 functional unit, and the hook the
  /// recovery path uses to fall back to a lower-tier kernel. Takes effect
  /// from the next executed instruction on both dispatch paths.
  void set_isa_features(bool xpulpv2, bool xpulpnn, bool hwloops);

 private:
  const isa::Instr& fetch_decode(addr_t pc);

  /// Fast-path fetch: the decode-cache hit test inlines into step_fast();
  /// only misses go through the out-of-line fetch_decode(). The reference
  /// path keeps calling fetch_decode() directly, preserving the pre-PR
  /// per-step call.
  const isa::Instr& fetch_decode_fast(addr_t pc) {
    const u32 idx = (pc - icache_base_) >> 1;
    if (idx < icache_valid_.size() && icache_valid_[idx]) [[likely]] {
      return icache_[idx];
    }
    return fetch_decode(pc);
  }

  /// Fast path: one instruction via the predecoded handler table, reading
  /// the packed Instr flags. `Traced` is a compile-time knob so untraced
  /// runs pay zero trace overhead.
  template <bool Traced>
  bool step_fast();
  /// The two multi-instruction loops behind run(), run_steps() and
  /// run_burst(). Each retires at most `budget` instructions and returns
  /// how many retired, stopping early on halt or at the first instruction
  /// boundary at or past burst_due_. `Observed` compiles the deadline
  /// compare and the region attribution compare into the fast loop (each
  /// unreachable while its observer is detached); the unobserved
  /// instantiation is byte-identical to the loop without either observer.
  template <bool Traced, bool Observed>
  u64 run_fast(u64 budget);
  /// Reference-dispatch loop over step_reference(), kept separate from
  /// run_fast as the oracle the differential suites diff it against;
  /// `Attributed` adds the region compare.
  template <bool Attributed>
  u64 run_reference(u64 budget);
  /// Pick the loop instantiation for the attached observers and run it.
  u64 run_loop(u64 budget);

  /// Advance the sampling deadline past the current cycle count, then
  /// invoke the hook. Out of line: the run loops only pay the compare.
  void sample_fire();
  /// Out-of-line half of the loops' one deadline compare (cycles >=
  /// deadline_): fire the sample if it is due, and return true when the
  /// burst horizon is reached and the loop must stop.
  bool deadline_hit();
  /// Set the burst horizon and refresh deadline_.
  void set_burst_due(cycles_t due);

  /// Region attribution check at an instruction boundary: one compare of
  /// the pc against the current region run; only leaving the run calls
  /// out of line. Never true while detached (the run spans the whole
  /// 32-bit address space).
  void attr_check() {
    if (static_cast<u64>(pc_ - attr_lo_) >= attr_len_) [[unlikely]] {
      attr_switch();
    }
  }
  /// Locate the run containing pc_ and, when its region differs from the
  /// current one, bank the counter delta into the current region first.
  void attr_switch();
  /// Settle the counters charged since the last bank into the current
  /// region and restart the delta from the live counters.
  void attr_bank();

  /// Reference path: the pre-optimization interpreter, byte-for-byte —
  /// mnemonic switch dispatch plus per-step isa:: predicate calls.
  bool step_reference();
  void execute_reference(const isa::Instr& in);

  /// Hardware-loop back-edge check after a fall-through instruction ending
  /// at `after`; shared by both step paths.
  void hwloop_backedge(addr_t after);

  // Execution helpers (defined in core.cpp). The semantic bodies are
  // shared between the reference switch and the handler table, so both
  // dispatch modes run identical semantics/timing; only classification
  // work differs (decode-time for the fast path, per-step for reference).
  void exec_lui(const isa::Instr& in);
  void exec_auipc(const isa::Instr& in);
  void alu_body(const isa::Instr& in, u32 b);
  void exec_alu(const isa::Instr& in);      // reference: imm-vs-reg chain
  void exec_alu_imm(const isa::Instr& in);  // fast: class-resolved
  void exec_alu_reg(const isa::Instr& in);
  void mem_body(const isa::Instr& in, unsigned size, bool store, bool sext);
  void exec_mem(const isa::Instr& in);            // fast: packed flags
  void exec_mem_reference(const isa::Instr& in);  // reference: isa:: calls
  void exec_branch_jump(const isa::Instr& in);
  void exec_muldiv(const isa::Instr& in);
  void exec_pulp_scalar(const isa::Instr& in);
  void exec_hwloop(const isa::Instr& in);
  void exec_simd(const isa::Instr& in);  // reference: predicate chain
  void exec_simd_alu(const isa::Instr& in);
  void exec_simd_dotp(const isa::Instr& in);
  void exec_simd_dotp_fast(const isa::Instr& in);  // decode-specialized lanes
  void exec_simd_elem(const isa::Instr& in);
  void exec_simd_qnt(const isa::Instr& in);
  void exec_csr_system(const isa::Instr& in);
  void exec_fence(const isa::Instr& in);
  void exec_ecall(const isa::Instr& in);
  void exec_ebreak(const isa::Instr& in);
  void exec_illegal(const isa::Instr& in);

  using ExecFn = void (Core::*)(const isa::Instr&);
  static const std::array<ExecFn,
                          static_cast<size_t>(isa::ExecClass::kCount)>
      kExecTable;

  u32 csr_read(u32 addr) const;

  void require(bool cond, const isa::Instr& in);

  /// Decode-cache coherence: drop cached decodes covering a stored-to
  /// range (self-modifying code support). Also evicts (or dirties, when
  /// live) overlapping superblock plans — one invalidation path for both
  /// caches.
  void icache_invalidate(addr_t a, unsigned size);

  // ---- Superblock engine (sim/superblock.cpp) ----

  /// Compile-if-needed and run a fused burst at `start` with at most
  /// `budget` instructions; returns how many retired (0 = fall back to
  /// the interpreter). `branch_pc` is nonzero for backward-branch
  /// candidates (the recorded backedge), zero for hardware-loop ones.
  u64 superblock_enter(addr_t start, addr_t branch_pc, u64 budget);
  /// Bind `start` to the plan of the body there: an identical plan from
  /// the content table, else a fresh compile. nullptr = ineligible
  /// (recorded in sb_rejects_).
  SuperblockPlan* sb_bind(addr_t start, addr_t branch_pc);
  std::unique_ptr<SuperblockPlan> sb_compile(addr_t start, addr_t branch_pc,
                                             addr_t end);
  /// Drop one binding's reference to `plan`; frees it at zero unless a
  /// burst is executing it (sb_exit frees it then).
  void sb_release(SuperblockPlan* plan);
  void sb_free(SuperblockPlan* plan);
  u64 sb_execute(SuperblockPlan& plan, addr_t entry, u64 budget);
  /// `Sampled` arms per-iteration/per-op sampling-deadline checks that
  /// repair the burst to an exact boundary via the plan's prefix tables.
  template <bool Sampled>
  u64 sb_execute_impl(SuperblockPlan& plan, addr_t entry, u64 budget);
  void sb_exit(SuperblockPlan& plan);
  /// Heat counter for taken backward conditional branches; promotes the
  /// target to a superblock candidate past the threshold.
  void sb_note_backedge(addr_t branch_pc, addr_t target);
  void sb_invalidate_range(addr_t a, unsigned size);
  void sb_recompute_extent();
  /// Evict plans whose fused mixed dot ops baked a now-stale mpc selector
  /// (called on every value-changing mpc write).
  void sb_evict_mixed_plans();
  /// Drop every binding, plan, reject record, heat entry and pending
  /// candidate (reset, decode-cache flush, ISA feature change).
  void sb_clear();

  void update_hwl_active() {
    hwl_active_ = hwl_count_[0] != 0 || hwl_count_[1] != 0;
  }

  mem::Memory& mem_;
  CoreConfig cfg_;
  TimingModel timing_;
  DotpUnit dotp_;
  QuantUnit qnt_;

  std::array<u32, 32> regs_{};
  addr_t pc_ = 0;
  addr_t next_pc_ = 0;
  bool redirect_ = false;  // set by taken branches/jumps during execute()

  // Hardware loop register file: two nested loops, L0 innermost.
  std::array<addr_t, 2> hwl_start_{};
  std::array<addr_t, 2> hwl_end_{};
  std::array<u32, 2> hwl_count_{};

  u8 last_load_rd_ = 0;  // destination of the previous load (0 = none)
  u32 last_load_data_ = 0;
  HaltReason halt_ = HaltReason::kRunning;
  u32 mscratch_ = 0;
  /// Precision-status CSR (mpc, 0x7C1). Writes evict superblock plans
  /// that baked the old selector into their fused dot ops.
  u32 mpc_ = 0;

  /// True while either hardware loop has a nonzero count, so the fast
  /// step skips the back-edge comparison entirely outside loops.
  bool hwl_active_ = false;

  bool ref_dispatch_ = false;
  /// iflag:: feature bits *not* provided by this config; decoded flags
  /// ANDed against it replace the per-step require() chains.
  u16 feature_guard_ = 0;

  PerfCounters perf_;
  TraceFn trace_;
  PreRunGate pre_run_gate_;

  /// Sampling hook state. kNoSampleDue makes the `cycles >= sample_due_`
  /// deadline compare unreachable when no sampler is attached (the cycle
  /// counter cannot reach ~0), so runtime-checked paths (step(), the
  /// reference loop) need no second branch on sampler_.
  static constexpr cycles_t kNoSampleDue = ~cycles_t{0};
  SampleFn sampler_;
  cycles_t sample_interval_ = 0;
  cycles_t sample_due_ = kNoSampleDue;

  /// Cluster burst horizon, set only while run_burst() is live.
  cycles_t burst_due_ = kNoSampleDue;
  /// min(sample_due_, burst_due_): the one deadline the observed loops and
  /// fused superblock bursts compare, so samples and burst horizons repair
  /// to exact boundaries through one mechanism. A burst only enters with
  /// the cycle count below it.
  cycles_t deadline_ = kNoSampleDue;

  /// Region attribution state (core.cpp). attr_lo_/attr_len_ cache the
  /// current run [lo, lo + len) of the attached table for attr_check();
  /// detached, they cover every 32-bit pc so the compare never fires.
  struct RegionAttribution;
  static constexpr u64 kWholeAddressSpace = u64{1} << 32;
  std::unique_ptr<RegionAttribution> attr_;
  addr_t attr_lo_ = 0;
  u64 attr_len_ = kWholeAddressSpace;

  std::vector<BurstAccess>* burst_sink_ = nullptr;
  /// Access-coordinate latches (see access_pc/access_start/access_cycle).
  /// step_start_ is written once per interpreted instruction; the hook_*
  /// trio only inside fused superblock bursts, per op that can reach the
  /// access hook.
  cycles_t step_start_ = 0;
  addr_t hook_pc_ = 0;
  cycles_t hook_start_ = 0;
  cycles_t hook_cycle_ = 0;

  // Direct-mapped decode cache indexed by (pc - icache_base_) >> 1. A pc
  // below the base wraps to a huge index and misses into the cold path.
  addr_t icache_base_ = 0;
  std::vector<isa::Instr> icache_;
  std::vector<u8> icache_valid_;
  u64 decode_gen_ = 0;

  // ---- Superblock engine state (host-side, never serialized) ----
  static constexpr addr_t kNoSbCandidate = ~addr_t{0};
  static constexpr unsigned kSbHeatSize = 64;  // direct-mapped, power of 2
  static constexpr unsigned kSbHeatThreshold = 16;
  static constexpr size_t kSbMaxOps = 128;

  struct SbHeatEntry {
    addr_t pc = 0;
    u16 count = 0;
  };

  /// Block start the run loop should try to fuse at the next instruction
  /// boundary (set by hwloop setup/backedges and hot backward branches).
  addr_t sb_candidate_ = kNoSbCandidate;
  addr_t sb_candidate_branch_ = 0;  // backedge pc for branch candidates
  /// Content table: every compiled plan, indexed by the hash of its key
  /// (a multimap so colliding keys coexist; lookups compare the key).
  std::unordered_multimap<u64, std::unique_ptr<SuperblockPlan>> sb_plans_;
  /// Entry pc -> the plan that runs there. Each binding holds one of the
  /// plan's refs and is evicted alone when a store hits its copy.
  std::unordered_map<addr_t, SuperblockPlan*> sb_bound_;
  /// Regions that failed static eligibility, so hot-but-uncompilable
  /// loops don't re-walk the block on every backedge. Range-keyed: a
  /// store into the region clears the record (the patched code may now
  /// compile).
  std::vector<std::pair<addr_t, addr_t>> sb_rejects_;
  addr_t sb_lo_ = 0, sb_hi_ = 0;  // union extent of bindings (store filter)
  SuperblockPlan* sb_active_ = nullptr;  // plan a burst is executing now
  addr_t sb_active_entry_ = 0;            // ... and the entry it runs at
  bool sb_active_dirty_ = false;  // live plan was stored into (SMC bail)
  std::array<SbHeatEntry, kSbHeatSize> sb_heat_{};
  SuperblockStats sb_stats_;
};

}  // namespace xpulp::sim
