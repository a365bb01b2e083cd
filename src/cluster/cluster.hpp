// Multi-core PULP cluster model — the scaling path the paper's conclusion
// points to (the XpulpNN core was subsequently integrated into 8-core PULP
// clusters; PULP-NN reports near-linear kernel scaling on such clusters).
//
// N XpulpNN cores share one L1 TCDM through a logarithmic interconnect with
// word-interleaved banks (PULP convention: 2 banks per core). The model:
//   - cores execute event-driven, always advancing the core with the
//     smallest local cycle count, so cross-core cycle ordering is exact;
//   - each data access claims its bank for the issuing cycle; when another
//     core holds the bank in the same cycle the access retries one cycle
//     later (round-robin arbitration), which is exactly one stall cycle
//     per conflict in RI5CY's blocking LSU;
//   - instruction fetches are served by per-core prefetch buffers
//     (PULP cluster I$) and do not touch the interconnect.
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "common/error.hpp"

#include "mem/memory.hpp"
#include "sim/core.hpp"
#include "xasm/program.hpp"

namespace xpulp::cluster {

/// Scheduling policy of Cluster::run()/run_steps().
///  - kReference: interleave one instruction at a time, always stepping the
///    core with the smallest (local clock, core index) — the event-driven
///    reference whose cross-core ordering every other mode is measured
///    against.
///  - kBurst (the default): deferred-arbitration burst scheduling
///    (DESIGN.md §15). Cores execute bounded bursts at full dispatch speed
///    (fast path + superblocks) while their TCDM accesses are logged
///    instead of arbitrated; a merge then replays the log through the bank
///    arbiter in provably-reference order and folds the resulting stalls
///    back into the cores' counters. Programs that read the cycle CSR,
///    traced cores, or a contention injector demote the run to kReference
///    automatically (counted in ClusterBurstStats::fallback_runs).
///
/// Precondition of kBurst: the programs are race-free (no core reads or
/// writes a word another core writes). Only then is it bit-identical to
/// kReference; a deliberately racy program must ask for kReference.
/// Every parallel kernel deployment is proven race-free by xrace's static
/// analysis (see analysis::analyze_races and its tier-1 test).
enum class SchedulerMode { kReference, kBurst };

struct ClusterConfig {
  int num_cores = 8;
  u32 banks_per_core = 2;  // PULP TCDM banking factor
  sim::CoreConfig core = sim::CoreConfig::extended();
  /// Burst unless the programs race (see SchedulerMode).
  SchedulerMode scheduler = SchedulerMode::kBurst;
  /// Burst scheduling epoch width in cycles: each epoch advances every
  /// core to a common cycle horizon `min local clock + burst_horizon`
  /// before replaying the deferred accesses. Purely a host-performance
  /// knob — exactness never depends on it.
  u32 burst_horizon = 1536;
};

/// Host-side counters of the burst scheduler (zeroed by load()).
struct ClusterBurstStats {
  u64 epochs = 0;             // burst rounds completed
  u64 bursts = 0;             // per-core run_burst() calls
  u64 burst_instructions = 0; // instructions retired inside bursts
  u64 reference_instructions = 0;  // retired on reference steps
  u64 replayed_accesses = 0;  // accesses replayed through the merge
  u64 deferred_stall_cycles = 0;  // arbiter stalls assigned by the merge
  u64 fallback_runs = 0;      // whole runs demoted to reference scheduling
  u64 peak_lane_entries = 0;  // longest deferred-access log any lane held
  double host_burst_seconds = 0;  // host time inside core bursts (phase 1)
  double host_merge_seconds = 0;  // host time replaying logs (phase 2)
};

struct ClusterStats {
  cycles_t makespan = 0;           // cycles until the last core halted
  std::vector<cycles_t> core_cycles;
  u64 bank_conflicts = 0;
  u64 data_accesses = 0;

  double conflict_rate() const {
    return data_accesses ? static_cast<double>(bank_conflicts) /
                               static_cast<double>(data_accesses)
                         : 0.0;
  }
};

/// Serializable arbiter state: per-bank booking tables plus the cumulative
/// counters (src/ckpt carries this inside a cluster snapshot).
struct BankArbiterState {
  std::vector<cycles_t> last_cycle;
  std::vector<int> last_core;
  u64 conflicts = 0;
  u64 accesses = 0;
};

/// Word-interleaved TCDM bank arbiter.
class BankArbiter {
 public:
  explicit BankArbiter(u32 banks)
      : banks_(banks),
        // Power-of-two bank counts (every PULP configuration: cores x
        // banking factor) select the bank with a mask; the modulo below
        // is a per-access integer divide, which the burst merge replays
        // millions of times.
        bank_mask_((banks & (banks - 1)) == 0 ? banks - 1 : 0),
        last_cycle_(banks, ~0ull),
        last_core_(banks, -1) {}

  /// Core `core` accesses `addr` at its local `cycle`; returns stall
  /// cycles (0 or 1) and books the bank.
  unsigned access(int core, cycles_t cycle, addr_t addr) {
    ++accesses_;
    const u32 w = addr >> 2;
    const u32 b = bank_mask_ != 0 || banks_ == 1 ? (w & bank_mask_)
                                                 : w % banks_;
    if (last_cycle_[b] == cycle && last_core_[b] != core) {
      // Bank busy this cycle: retry next cycle.
      ++conflicts_;
      last_cycle_[b] = cycle + 1;
      last_core_[b] = core;
      return 1;
    }
    if (last_cycle_[b] == ~0ull || last_cycle_[b] < cycle ||
        last_core_[b] == core) {
      last_cycle_[b] = cycle;
      last_core_[b] = core;
      return 0;
    }
    // Bank already booked past this cycle (cascaded conflict).
    ++conflicts_;
    const unsigned stall = static_cast<unsigned>(last_cycle_[b] + 1 - cycle);
    last_cycle_[b] += 1;
    last_core_[b] = core;
    return stall;
  }

  u64 conflicts() const { return conflicts_; }
  u64 accesses() const { return accesses_; }

  /// Forget every bank booking (cumulative counters stay). Cores restart
  /// from local cycle 0 on a reload; stale bookings from a previous run
  /// would otherwise read as far-future reservations and charge absurd
  /// cascaded-conflict stalls.
  void reset_booking() {
    std::fill(last_cycle_.begin(), last_cycle_.end(), ~0ull);
    std::fill(last_core_.begin(), last_core_.end(), -1);
  }

  BankArbiterState state() const {
    return BankArbiterState{last_cycle_, last_core_, conflicts_, accesses_};
  }
  void restore(const BankArbiterState& s) {
    if (s.last_cycle.size() != banks_ || s.last_core.size() != banks_) {
      throw SimError("bank arbiter state does not match bank count");
    }
    last_cycle_ = s.last_cycle;
    last_core_ = s.last_core;
    conflicts_ = s.conflicts;
    accesses_ = s.accesses;
  }

 private:
  u32 banks_;
  u32 bank_mask_;
  std::vector<cycles_t> last_cycle_;
  std::vector<int> last_core_;
  u64 conflicts_ = 0;
  u64 accesses_ = 0;
};

/// Serializable cluster scheduling state: every core's architectural state
/// (whose perf.cycles are the scheduler's local clocks) plus the arbiter's
/// bank bookings. The shared memory is captured separately by src/ckpt.
struct ClusterState {
  std::vector<sim::CoreState> cores;
  BankArbiterState arbiter;
};

/// Scheduler pick key: a (local clock, core index) pair packed as
/// (clock << 6) | core, so one u64 compare orders lexicographically —
/// smallest clock first, ties to the lower core index, which is exactly
/// the reference scheduler's pick rule. Clocks stay far below 2^58 under
/// the 2e9-instruction budget.
inline u64 pick_key(cycles_t clock, int core) {
  return (clock << 6) | static_cast<u64>(core);
}
inline cycles_t pick_clock(u64 key) { return key >> 6; }
inline int pick_core(u64 key) { return static_cast<int>(key & 63); }

class Cluster {
 public:
  explicit Cluster(ClusterConfig cfg = {});

  int num_cores() const { return static_cast<int>(cores_.size()); }
  mem::Memory& memory() { return mem_; }
  const mem::Memory& memory() const { return mem_; }
  sim::Core& core(int i) { return *cores_[static_cast<size_t>(i)]; }
  const sim::Core& core(int i) const { return *cores_[static_cast<size_t>(i)]; }
  const ClusterConfig& config() const { return cfg_; }

  /// Load one program per core (programs may live at distinct code bases
  /// in the shared memory) and reset every core to its entry point.
  void load(const std::vector<xasm::Program>& programs);

  /// Whole-cluster gate over the full program set, called by load() before
  /// anything is written to memory. Unlike the per-core pre-run gate this
  /// sees every core's program at once — xrace's static cross-core
  /// footprint check plugs in here (analysis::make_race_gate). Throwing
  /// aborts the load with no state mutated.
  using PreLoadGate = std::function<void(const std::vector<xasm::Program>&)>;
  void set_pre_load_gate(PreLoadGate gate) {
    pre_load_gate_ = std::move(gate);
  }

  /// Observer for every data access made while the cluster runs, invoked
  /// under the event-driven scheduler's exact cycle ordering: issuing core,
  /// its local cycle, the pc of the accessing instruction, the address,
  /// access size in bytes, direction, and the stall cycles the bank
  /// arbiter charged (nonzero exactly when the arbiter counted a
  /// conflict, so summing `conflict_stalls != 0` reproduces
  /// BankArbiter::conflicts() exactly — xtel's bank heatmap relies on
  /// this). xrace's shadow-memory phase plugs in here. Call before
  /// run()/run_steps().
  using AccessObserver = std::function<void(int core, cycles_t cycle,
                                            addr_t pc, addr_t addr,
                                            unsigned size, bool is_store,
                                            unsigned conflict_stalls)>;
  void set_access_observer(AccessObserver obs) {
    observer_ = std::move(obs);
  }

  /// Run until every core executed its ecall: run_steps(budget + 1) plus
  /// the budget and halt checks. Throws on any abnormal halt; a run
  /// needing more than the budget executes exactly budget + 1
  /// instructions and then throws, and under either scheduler the state at
  /// the trap is the reference state at that index. A Cluster instance is
  /// fully re-runnable: load() again and run() again, with per-run
  /// counters starting fresh.
  ClusterStats run(u64 max_total_instructions = 2'000'000'000);

  /// Execute exactly `n` scheduler steps (total instructions across all
  /// cores, in reference interleaving order), or fewer if every core
  /// halts first. Returns the number actually executed. Under burst
  /// scheduling the stopping state is bit-identical to a reference run
  /// paused at the same index — mid-burst checkpoints are exact. Installs
  /// the arbiter access hook for the call and removes it on every exit,
  /// guest faults included, so callers can pause, snapshot, restore and
  /// resume between calls with nothing to bracket.
  u64 run_steps(u64 n);

  SchedulerMode scheduler() const { return cfg_.scheduler; }

  const ClusterBurstStats& burst_stats() const { return burst_stats_; }

  /// Aggregate per-core cycle stats plus arbiter deltas against the given
  /// baselines (pass 0,0 for cumulative totals). Unlike run(), does not
  /// require cores to have halted via ecall.
  ClusterStats stats_since(u64 base_conflicts, u64 base_accesses) const;

  // ---- Snapshot/restore (src/ckpt) ----

  ClusterState save_state() const;
  /// Restore scheduling state into this (possibly live) cluster; core
  /// count and bank count must match. Decode caches are invalidated —
  /// callers restoring the shared memory must do that first.
  void restore_state(const ClusterState& s);

 private:
  // One deferred TCDM access, logged during a burst and replayed through
  // the bank arbiter by the merge. `start` is the issuing instruction's
  // start cycle (the scheduler's pick key for that instruction), `cycle`
  // the local cycle at which the access itself issues; both are pre-merge
  // coordinates — the merge adds the lane's pending stall offset. The
  // record type is shared with sim::Core so the superblock engine's slim
  // fast path can append to the lane log directly (set_burst_sink) without
  // a per-access std::function dispatch; interpreter and slow-path
  // accesses reach the same log through the logging hook, preserving
  // program order within each lane.
  using LaneEntry = sim::BurstAccess;

  // Per-core deferred-access log plus the stall bookkeeping that keeps
  // `true local clock = perf.cycles + (assigned - folded)` an invariant:
  // `assigned` counts every arbiter stall the merge charged this lane,
  // `folded` the part already added to the core's counters. Folding only
  // happens when the lane is drained (head == log.size()), because
  // advancing perf.cycles while logged accesses still await replay would
  // corrupt their merge keys.
  //
  // `cur_start`/`cur_offset` latch the stall offset once per instruction:
  // the reference charges hook stalls at the end of the issuing
  // instruction, so two accesses of the same instruction (pv.qnt's pair
  // of threshold fetches) issue at the same cycle — a stall assigned to
  // the first must not shift the second. Raw start cycles are strictly
  // increasing within a lane (instructions cost at least one cycle, and
  // folding only raises later starts), so `start != cur_start` detects a
  // new instruction exactly.
  struct BurstLane {
    std::vector<LaneEntry> log;
    size_t head = 0;
    u64 assigned = 0;
    u64 folded = 0;
    cycles_t cur_start = ~0ull;
    u64 cur_offset = 0;

    bool drained() const { return head == log.size(); }
    u64 pending_stalls() const { return assigned - folded; }
  };

  /// Install the bank-arbiter access hook (run_steps() brackets every
  /// call with these two). Idempotent.
  void begin_run();
  /// Uninstall the hook and clear the active-core latch. Idempotent.
  void end_run();

  // ---- Schedulers (cluster.cpp) ----
  u64 drive_burst(u64 target);
  /// The one loop that interleaves cores one instruction at a time: up to
  /// `n` steps, always on the live core with the smallest (true clock,
  /// index), replaying still-pending burst accesses ahead of each step.
  /// SchedulerMode::kReference runs on it alone.
  u64 reference_steps(u64 n);
  /// Replay the logged accesses ordered before the frontier through the
  /// arbiter; returns how many it popped.
  u64 merge_epoch();
  void fold_lane(int core);
  /// Smallest (true clock, core) key over live cores — the earliest point
  /// at which a new access could still issue; ~0 once every core halted.
  u64 frontier() const;
  bool burst_eligible() const;
  cycles_t true_clock(int core) const;

  ClusterConfig cfg_;
  mem::Memory mem_;
  std::vector<std::unique_ptr<sim::Core>> cores_;
  BankArbiter arbiter_;

  // Core currently stepping inside run_steps(). One access hook per call
  // reads these instead of a std::function closure rebuilt every step.
  sim::Core* active_core_ = nullptr;
  int active_core_id_ = -1;

  PreLoadGate pre_load_gate_;
  AccessObserver observer_;

  // ---- Burst scheduling state ----
  std::vector<BurstLane> lanes_;
  u64 lanes_pending_ = 0;       // logged-but-unreplayed entries, all lanes
  // While true, the shared access hook logs instead of arbitrating (burst
  // phase 1); reference steps run with it false and arbitrate at access
  // time.
  bool logging_ = false;
  bool programs_use_cycle_csr_ = false;  // set by load()'s opcode scan
  ClusterBurstStats burst_stats_;
};

}  // namespace xpulp::cluster
