#include "cluster/cluster.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "common/error.hpp"

namespace xpulp::cluster {

namespace {

// Burst-scheduler tuning. kSampleMargin is the folded-cycle gap a sampled
// core keeps between its burst horizon and its next sample deadline; it
// must exceed kBurstOvershoot plus the arbiter stalls the core can pick up
// in one epoch, so that sample fires only ever happen on fully-folded
// reference steps (fold_lane trips a SimError if the margin was not
// enough). kBurstOvershoot bounds how far past its horizon a burst can
// run: the longest single instruction or armed superblock op (divide ~35
// cycles, fused ops <= 64) with generous headroom.
constexpr cycles_t kSampleMargin = 2048;
constexpr cycles_t kBurstOvershoot = 256;
// Reference-step chunk (in scheduler steps, times num_cores) used when
// an epoch could not burst every core — enough to carry a sampler-blocked
// core across its deadline.
constexpr u64 kRefChunk = 512;
constexpr u64 kInfKey = ~0ull;

double host_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Conservative scan for reads of the cycle CSR (cycle/cycleh and their
/// machine-mode aliases mcycle/mcycleh). A program that observes its own
/// cycle counter would see deferred (not yet folded) stall cycles mid-
/// burst, so such programs run under reference scheduling. The scan
/// decodes a candidate 32-bit word at every halfword offset — compressed
/// instructions make the stream 2-byte aligned — which can only
/// over-match (data or misaligned views that look like CSR reads demote
/// the run; never the reverse). instret reads are timing-independent
/// (both schedulers retire the identical per-core instruction sequence)
/// and stay eligible.
bool reads_cycle_csr(const xasm::Program& p) {
  const auto words = p.words();
  const u8* bytes = reinterpret_cast<const u8*>(words.data());
  const size_t nb = words.size() * 4;
  for (size_t off = 0; off + 4 <= nb; off += 2) {
    u32 raw;
    std::memcpy(&raw, bytes + off, 4);
    if ((raw & 0x7f) != 0x73) continue;        // SYSTEM major opcode
    if (((raw >> 12) & 0x7) == 0) continue;    // ecall/ebreak/mret, not CSR
    const u32 csr = raw >> 20;
    if (csr == 0xB00 || csr == 0xB80 || csr == 0xC00 || csr == 0xC80) {
      return true;
    }
  }
  return false;
}

}  // namespace

Cluster::Cluster(ClusterConfig cfg)
    : cfg_(cfg),
      arbiter_(static_cast<u32>(cfg.num_cores) * cfg.banks_per_core) {
  if (cfg_.num_cores < 1 || cfg_.num_cores > 64) {
    throw SimError("cluster size out of range");
  }
  for (int i = 0; i < cfg_.num_cores; ++i) {
    cores_.push_back(std::make_unique<sim::Core>(mem_, cfg_.core));
  }
  lanes_.resize(static_cast<size_t>(cfg_.num_cores));
}

void Cluster::load(const std::vector<xasm::Program>& programs) {
  if (programs.size() != cores_.size()) {
    throw SimError("need exactly one program per core");
  }
  if (pre_load_gate_) pre_load_gate_(programs);
  for (size_t i = 0; i < programs.size(); ++i) {
    programs[i].load(mem_);
  }
  for (size_t i = 0; i < programs.size(); ++i) {
    cores_[i]->reset(programs[i].entry(),
                     programs[i].base() + programs[i].size_bytes());
  }
  // A reloaded cluster starts a fresh run: local clocks back to zero and
  // no bank bookings carried over. Leaving either in place leaks the
  // previous run's cycle state into the scheduler (stale perf.cycles pick
  // the wrong core; stale bookings charge far-future cascaded-conflict
  // stalls against cores restarting at cycle 0).
  for (auto& c : cores_) c->reset_perf();
  arbiter_.reset_booking();
  mem_.reset_stats();
  // Fresh run: no deferred accesses carried over, burst counters zeroed,
  // and the cycle-CSR eligibility scan redone for the new program set.
  for (auto& l : lanes_) l = BurstLane{};
  lanes_pending_ = 0;
  burst_stats_ = ClusterBurstStats{};
  programs_use_cycle_csr_ = false;
  for (const auto& p : programs) {
    if (reads_cycle_csr(p)) {
      programs_use_cycle_csr_ = true;
      break;
    }
  }
}

void Cluster::begin_run() {
  // Route the stepping core's data accesses through the bank arbiter at
  // its current local cycle. Installed once per run_steps() call; the
  // scheduling loops only update active_core_/active_core_id_ instead of
  // building a new std::function closure per step.
  mem_.set_access_hook([this](addr_t a, unsigned size,
                              bool is_store) -> unsigned {
    if (logging_) [[unlikely]] {
      // Burst phase 1: defer arbitration. Record the access in the
      // issuing core's lane — instruction start clock (the scheduler's
      // pick key), issue cycle and pc in the core's pre-merge local
      // coordinates (the superblock engine latches exact per-op values
      // when a hook is installed; the interpreter reports live ones) —
      // and charge nothing. merge_epoch() later runs the entries
      // through the arbiter in provably-reference order and assigns the
      // stalls to the lane.
      // (The superblock slim path appends to the same per-lane log
      // directly through the core's burst sink; lanes_pending_ is
      // recomputed from the log sizes when the phase ends, so neither
      // path tracks it incrementally here.)
      BurstLane& lane = lanes_[static_cast<size_t>(active_core_id_)];
      const cycles_t start = active_core_->access_start();
      const cycles_t delta = active_core_->access_cycle() - start;
      if (delta > 0xffff) [[unlikely]] {
        throw SimError("internal: access issued >2^16 cycles into its "
                       "instruction; burst log delta overflow");
      }
      lane.log.push_back({start, active_core_->access_pc(), a,
                          static_cast<u16>(delta), static_cast<u8>(size),
                          static_cast<u8>(is_store)});
      return 0;
    }
    const cycles_t cycle = active_core_->perf().cycles;
    // Arbitrate first so the observer sees the stall the access was
    // charged (the arbiter books the bank either way).
    const unsigned stalls = arbiter_.access(active_core_id_, cycle, a);
    if (observer_) {
      observer_(active_core_id_, cycle, active_core_->pc(), a, size,
                is_store, stalls);
    }
    return stalls;
  });
}

void Cluster::end_run() {
  mem_.set_access_hook({});
  active_core_ = nullptr;
  active_core_id_ = -1;
  logging_ = false;
}

// ---------------------------------------------------------------------------
// Burst scheduling (DESIGN.md §15)
//
// The reference scheduler calls the bank arbiter once per access, ordered by
// (issuing instruction's start clock, core index, within-core program
// order). Burst mode reproduces that exact call sequence without stepping
// per instruction: cores run bounded bursts at full dispatch speed while
// their accesses are only logged, then a k-way merge replays the logs
// through the arbiter in that same lexicographic order. Stalls the merge
// assigns are kept as a per-lane offset (`assigned - folded`) and folded
// into the core's counters only once its lane is drained, preserving the
// invariant `true local clock = perf.cycles + pending_stalls`.
// ---------------------------------------------------------------------------

cycles_t Cluster::true_clock(int core) const {
  return cores_[static_cast<size_t>(core)]->perf().cycles +
         lanes_[static_cast<size_t>(core)].pending_stalls();
}

bool Cluster::burst_eligible() const {
  if (programs_use_cycle_csr_) return false;
  if (mem_.contention_period() != 0) return false;
  for (const auto& c : cores_) {
    if (c->has_trace()) return false;
  }
  return true;
}

void Cluster::fold_lane(int core) {
  BurstLane& lane = lanes_[static_cast<size_t>(core)];
  if (!lane.drained()) {
    throw SimError("internal: folding an undrained burst lane");
  }
  const u64 pend = lane.pending_stalls();
  if (pend == 0) return;
  sim::Core& c = *cores_[static_cast<size_t>(core)];
  c.charge_deferred_stalls(pend);
  mem_.add_contention_stalls(pend);
  lane.folded = lane.assigned;
  // Sample fires must land on fully-folded boundaries (reference
  // steps); the burst horizon clamp keeps sampled cores kSampleMargin
  // folded cycles short of their deadline so the stalls folded here can
  // never carry them across it. If the program's conflict density defeats
  // the margin, fail loudly rather than emit a late sample.
  if (c.has_sampler() && c.perf().cycles >= c.next_sample_due()) {
    throw SimError(
        "burst scheduling overshot a sample boundary; lower burst_horizon "
        "or raise the sample interval");
  }
}

u64 Cluster::frontier() const {
  u64 f = kInfKey;
  for (size_t i = 0; i < cores_.size(); ++i) {
    if (cores_[i]->halted()) continue;
    f = std::min(f, pick_key(true_clock(static_cast<int>(i)),
                             static_cast<int>(i)));
  }
  return f;
}

u64 Cluster::merge_epoch() {
  // Replay, in global key order, every logged access whose merge key
  // lexicographically precedes the frontier. The frontier is computed
  // ONCE: stalls assigned while popping only ever RAISE true clocks, so a
  // frontier that goes stale is conservatively low — the merge under-pops
  // and the leftover entries roll into the next call. Repeating the call
  // until it pops nothing therefore replays exactly the sequence a
  // frontier recomputed after every pop would (reference_steps does
  // that). Per-lane head keys are cached and only the popped lane's key is
  // recomputed, making a pop O(num_cores) over a contiguous u64 array.
  if (lanes_pending_ == 0) return 0;
  const u64 front = frontier();
  u64 keys[64];
  const size_t n = lanes_.size();
  const auto head_key = [&](size_t i) -> u64 {
    const BurstLane& lane = lanes_[i];
    if (lane.head == lane.log.size()) return kInfKey;
    const LaneEntry& e = lane.log[lane.head];
    const u64 off = e.start == lane.cur_start ? lane.cur_offset
                                              : lane.pending_stalls();
    return pick_key(e.start + off, static_cast<int>(i));
  };
  for (size_t i = 0; i < n; ++i) keys[i] = head_key(i);
  // The pop loop runs once per logged access of the entire simulation, so
  // the per-pop stats accumulate in locals: a function call plus four
  // counter stores per pop are measurable against the ~15ns budget.
  const bool observe = static_cast<bool>(observer_);
  u64 popped = 0;
  u64 stall_sum = 0;
  for (;;) {
    u64 best = keys[0];
    size_t bi = 0;
    for (size_t i = 1; i < n; ++i) {
      if (keys[i] < best) {
        best = keys[i];
        bi = i;
      }
    }
    if (best >= front) break;
    BurstLane& lane = lanes_[bi];
    const LaneEntry& e = lane.log[lane.head];
    if (e.start != lane.cur_start) {
      // New instruction: latch its stall offset. The reference charges
      // hook stalls at the issuing instruction's end, so accesses of one
      // instruction share a cycle base; stalls assigned below shift only
      // later instructions.
      lane.cur_start = e.start;
      lane.cur_offset = lane.pending_stalls();
    }
    const cycles_t cycle = e.start + e.cycle_delta + lane.cur_offset;
    const unsigned stalls =
        arbiter_.access(static_cast<int>(bi), cycle, e.addr);
    if (observe) [[unlikely]] {
      observer_(static_cast<int>(bi), cycle, e.pc, e.addr, e.size,
                e.is_store != 0, stalls);
    }
    lane.assigned += stalls;
    lane.head += 1;
    stall_sum += stalls;
    ++popped;
    if (lane.head == lane.log.size()) {
      fold_lane(static_cast<int>(bi));
      keys[bi] = kInfKey;
    } else {
      keys[bi] = head_key(bi);
    }
  }
  lanes_pending_ -= popped;
  burst_stats_.replayed_accesses += popped;
  burst_stats_.deferred_stall_cycles += stall_sum;
  return popped;
}

u64 Cluster::reference_steps(u64 n) {
  // Exact reference stepping. While burst accesses are still pending,
  // every step first pops all accesses ordered before the frontier core's
  // next instruction, folds that core's (now drained) lane so its counters
  // are true, then steps it through the arbitrating hook — the global
  // arbiter call sequence stays in lexicographic order throughout. This
  // carries a burst run across sample deadlines, closes its band and does
  // the final drain (all cores halted makes the frontier infinite, so the
  // merge flushes every lane).
  u64 executed = 0;
  while (lanes_pending_ != 0 && executed < n) {
    while (merge_epoch() != 0) {
    }
    const u64 front = frontier();
    if (front == kInfKey) break;  // all halted (lanes flushed)
    const int id = pick_core(front);
    // All of this core's logged accesses order strictly before its next
    // instruction, so the merge drained its lane; folding makes
    // perf.cycles the true clock before the step issues real accesses.
    fold_lane(id);
    active_core_ = cores_[static_cast<size_t>(id)].get();
    active_core_id_ = id;
    active_core_->step();
    ++executed;
  }
  // Unless the steps ran out first, every lane is now drained and folded,
  // and stays so: reference steps never log. True clocks are therefore
  // the cores' perf.cycles, and a cached-key argmin
  // over a contiguous array (only the stepped core's key refreshed) picks
  // the same core frontier() would, without re-reading every core. The
  // array is padded with never-picked keys to whole groups of 8, so the
  // compiler unrolls the scan of each group: the 8-core paper cluster is
  // one branch-predictable pass over a single cache line.
  u64 keys[64];
  const size_t cores = cores_.size();
  const size_t padded = (cores + 7) & ~size_t{7};
  for (size_t i = 0; i < padded; ++i) {
    keys[i] = i >= cores || cores_[i]->halted()
                  ? kInfKey
                  : pick_key(cores_[i]->perf().cycles, static_cast<int>(i));
  }
  while (executed < n) {
    u64 best = kInfKey;
    size_t bi = 0;
    for (size_t g = 0; g < padded; g += 8) {
      for (size_t i = g; i < g + 8; ++i) {
        if (keys[i] < best) {
          best = keys[i];
          bi = i;
        }
      }
    }
    if (best == kInfKey) break;  // all halted
    sim::Core& c = *cores_[bi];
    active_core_ = &c;
    active_core_id_ = static_cast<int>(bi);
    c.step();
    ++executed;
    keys[bi] = c.halted() ? kInfKey
                          : pick_key(c.perf().cycles, static_cast<int>(bi));
  }
  return executed;
}

u64 Cluster::drive_burst(u64 target) {
  const u64 n_cores = cores_.size();
  const cycles_t delta = cfg_.burst_horizon != 0 ? cfg_.burst_horizon : 1;
  // Band-closing slack: one epoch retires at most num_cores *
  // (burst_horizon + overshoot) instructions (every instruction costs at
  // least one cycle), and closing the band afterwards costs at most the
  // same again, so stopping the epoch loop this many steps short of the
  // target guarantees the tail reference steps reach the exact target
  // index with every lane drained — the stopping state is bit-identical
  // to a reference run paused there.
  const u64 slack = 2 * n_cores * (delta + kBurstOvershoot);
  u64 executed = 0;
  // Give every core a direct sink into its lane log so the superblock
  // engine's slim fast path can log accesses without the hook's
  // std::function dispatch (and, crucially, stay slim-eligible at all:
  // has_access_hook() alone would force the armed slow path). The sink
  // must come down on every exit — a stale pointer would dangle into a
  // cleared lane on the next load().
  for (size_t i = 0; i < n_cores; ++i) {
    cores_[i]->set_burst_sink(&lanes_[i].log);
  }
  const auto clear_sinks = [&] {
    for (auto& c : cores_) c->set_burst_sink(nullptr);
  };
  try {
  while (executed + slack < target) {
    const u64 front = frontier();
    if (front == kInfKey) break;  // all halted
    cycles_t horizon = pick_clock(front) + delta;
    // Sample boundaries must be crossed on reference steps with every
    // lane advanced in exact global key order: a Sample diffs the
    // *shared* TCDM stats, so if any other core had already burst past
    // the boundary cycle, the window would see accesses the reference
    // scheduler orders after it. Clamp every core's horizon a margin
    // short of the earliest sampled deadline (fold_lane's tripwire
    // guards the margin); the reference steps below then carry the
    // whole cluster across the boundary in reference order.
    for (size_t i = 0; i < n_cores; ++i) {
      const sim::Core& c = *cores_[i];
      if (c.halted() || !c.has_sampler()) continue;
      const cycles_t due = c.next_sample_due();
      horizon = std::min(horizon,
                         due > kSampleMargin ? due - kSampleMargin : 0);
    }

    // Phase 1: burst every live core to the horizon, logging accesses.
    const double t0 = host_now();
    const u64 before = executed;
    bool any_skipped = false;
    logging_ = true;
    for (size_t i = 0; i < n_cores; ++i) {
      sim::Core& c = *cores_[i];
      if (c.halted()) continue;
      const u64 pend = lanes_[i].pending_stalls();
      const cycles_t hz = horizon;
      if (hz <= c.perf().cycles + pend) {
        any_skipped = true;
        continue;
      }
      active_core_ = &c;
      active_core_id_ = static_cast<int>(i);
      // The horizon is a true-clock bound; the core compares its folded
      // cycle counter, so subtract the lane's pending offset.
      const u64 n = c.run_burst(hz - pend, target - executed);
      executed += n;
      burst_stats_.bursts += 1;
      burst_stats_.burst_instructions += n;
    }
    logging_ = false;
    // Sink pushes bypass the hook, so the pending count is reconciled
    // from the per-lane logs once per epoch instead of per access.
    lanes_pending_ = 0;
    for (const auto& l : lanes_) {
      lanes_pending_ += l.log.size() - l.head;
      burst_stats_.peak_lane_entries =
          std::max<u64>(burst_stats_.peak_lane_entries, l.log.size());
    }

    // Phase 2: replay everything ordered before the new frontier, then
    // drop each lane's replayed prefix: a core that ends every epoch
    // ahead of the frontier never drains, so its log would otherwise keep
    // every access of the run. erase() keeps each vector in place (the
    // cores' burst sinks point at it).
    const double t1 = host_now();
    merge_epoch();
    for (auto& l : lanes_) {
      l.log.erase(l.log.begin(),
                  l.log.begin() + static_cast<std::ptrdiff_t>(l.head));
      l.head = 0;
    }
    burst_stats_.host_burst_seconds += t1 - t0;
    burst_stats_.host_merge_seconds += host_now() - t1;
    burst_stats_.epochs += 1;

    // A sampler-blocked core only advances on reference steps; a chunk of
    // them also guarantees forward progress if no core had burst room.
    if (any_skipped || executed == before) {
      const u64 ref = reference_steps(
          std::min<u64>(n_cores * kRefChunk, target - executed));
      executed += ref;
      burst_stats_.reference_instructions += ref;
    }
  }
  // Close the band: the remaining steps run on the replay-aware reference
  // loop, which drains every lane as the frontier passes it.
  const u64 ref = reference_steps(target - executed);
  executed += ref;
  burst_stats_.reference_instructions += ref;
  if (lanes_pending_ != 0) {
    throw SimError("internal: burst band failed to close");
  }
  } catch (...) {
    clear_sinks();
    throw;
  }
  clear_sinks();
  return executed;
}

u64 Cluster::run_steps(u64 n) {
  // The hook must come down on *every* exit path: a guest fault escaping
  // a step would otherwise leave the arbiter hook (and its dangling
  // active-core latch) installed on the shared memory.
  begin_run();
  u64 executed = 0;
  try {
    if (cfg_.scheduler == SchedulerMode::kBurst && burst_eligible()) {
      executed = drive_burst(n);
    } else {
      if (cfg_.scheduler == SchedulerMode::kBurst) {
        burst_stats_.fallback_runs += 1;
      }
      executed = reference_steps(n);
    }
  } catch (...) {
    end_run();
    throw;
  }
  end_run();
  return executed;
}

ClusterStats Cluster::stats_since(u64 base_conflicts,
                                  u64 base_accesses) const {
  ClusterStats stats;
  for (const auto& c : cores_) {
    stats.core_cycles.push_back(c->perf().cycles);
    stats.makespan = std::max(stats.makespan, c->perf().cycles);
  }
  stats.bank_conflicts = arbiter_.conflicts() - base_conflicts;
  stats.data_accesses = arbiter_.accesses() - base_accesses;
  return stats;
}

ClusterState Cluster::save_state() const {
  ClusterState s;
  s.cores.reserve(cores_.size());
  for (const auto& c : cores_) s.cores.push_back(c->save_state());
  s.arbiter = arbiter_.state();
  return s;
}

void Cluster::restore_state(const ClusterState& s) {
  if (s.cores.size() != cores_.size()) {
    throw SimError("cluster state does not match core count");
  }
  arbiter_.restore(s.arbiter);  // validates bank count before any mutation
  for (size_t i = 0; i < cores_.size(); ++i) {
    cores_[i]->restore_state(s.cores[i]);
    cores_[i]->invalidate_decode_cache();
  }
  // Burst lanes are always drained at the public stopping points a
  // snapshot can capture, so there is no deferred state to restore — but
  // the per-lane merge latches (cur_start in particular) assume raw start
  // cycles only ever increase, which restoring to an earlier point
  // violates. Reset them outright.
  for (auto& l : lanes_) l = BurstLane{};
  lanes_pending_ = 0;
}

ClusterStats Cluster::run(u64 max_total_instructions) {
  const u64 base_conflicts = arbiter_.conflicts();
  const u64 base_accesses = arbiter_.accesses();
  // Asking for budget+1 steps makes a run that needs more than the budget
  // execute precisely max+1 instructions — the reference state at that
  // index, under either scheduler — and then throw.
  if (run_steps(max_total_instructions + 1) > max_total_instructions) {
    throw SimError("cluster instruction budget exceeded");
  }
  for (const auto& c : cores_) {
    if (c->halt_reason() != sim::HaltReason::kEcall) {
      throw SimError("a cluster core halted abnormally");
    }
  }
  return stats_since(base_conflicts, base_accesses);
}

}  // namespace xpulp::cluster
