// Superblock engine: detection, compilation, fused execution and
// invalidation (DESIGN.md §12). These are Core member functions — the
// fused loop is an alternative inner loop of the same core, touching the
// same architectural state as step_fast(), never a separate machine.
//
// Bit-exactness contract (enforced by the three-way differential tests):
// every exit from a fused burst — normal completion, budget exhaustion,
// self-modifying-store bail, memory fault — leaves registers, pc,
// hardware-loop state, last-load tracking, PerfCounters and MemStats
// exactly as if the interpreter had stepped each instruction.
#include "sim/superblock.hpp"

#include <algorithm>
#include <array>
#include <optional>

#include "common/bitops.hpp"
#include "common/error.hpp"
#include "sim/dotp_lanes.hpp"

#if defined(__SSE4_1__)
#define XPULP_SB_HOST_SIMD 1
#include <immintrin.h>
#endif

namespace xpulp::sim {

using isa::Instr;
using isa::Mnemonic;
namespace iflag = isa::iflag;

namespace {

u8 load_dest(const SbOp& o) {
  return (o.flags & iflag::kIsLoad) ? o.rd : u8{0};
}

bool reads_reg(const SbOp& o, u8 r) {
  return ((o.flags & iflag::kReadsRs1) && o.rs1 == r) ||
         ((o.flags & iflag::kReadsRs2) && o.rs2 == r) ||
         ((o.flags & iflag::kReadsRd) && o.rd == r);
}

/// dst += d * k. Every PerfCounters field is linear in the number of
/// iterations, so a whole burst's static accounting is one scaled add
/// instead of one add per iteration.
void add_scaled(PerfCounters& dst, const PerfCounters& d, u64 k) {
  dst.cycles += d.cycles * k;
  dst.instructions += d.instructions * k;
  dst.taken_branches += d.taken_branches * k;
  dst.not_taken_branches += d.not_taken_branches * k;
  dst.jumps += d.jumps * k;
  dst.branch_stall_cycles += d.branch_stall_cycles * k;
  dst.load_use_stall_cycles += d.load_use_stall_cycles * k;
  dst.mem_stall_cycles += d.mem_stall_cycles * k;
  dst.mul_div_stall_cycles += d.mul_div_stall_cycles * k;
  dst.hwloop_backedges += d.hwloop_backedges * k;
  dst.loads += d.loads * k;
  dst.stores += d.stores * k;
  dst.scalar_alu_ops += d.scalar_alu_ops * k;
  dst.mul_ops += d.mul_ops * k;
  dst.div_ops += d.div_ops * k;
  dst.simd_alu_ops += d.simd_alu_ops * k;
  dst.qnt_ops += d.qnt_ops * k;
  dst.qnt_stall_cycles += d.qnt_stall_cycles * k;
  dst.csr_ops += d.csr_ops * k;
  dst.sys_ops += d.sys_ops * k;
  dst.mac_ops += d.mac_ops * k;
  for (unsigned i = 0; i < d.dotp_ops.size(); ++i) {
    dst.dotp_ops[i] += d.dotp_ops[i] * k;
  }
  for (unsigned i = 0; i < d.mixed_dotp_ops.size(); ++i) {
    dst.mixed_dotp_ops[i] += d.mixed_dotp_ops[i] * k;
  }
  dst.lsu_data_toggles += d.lsu_data_toggles * k;
}

void add_counters(PerfCounters& dst, const PerfCounters& d) {
  add_scaled(dst, d, 1);
}

/// Static per-op accounting, batched into the per-iteration delta (and the
/// repair prefixes). Must mirror the fused op bodies in sb_execute():
/// fully-inlined kinds batch their class counter here; kAluImm/kAluReg/
/// kHandler ops run the existing exec helpers, which charge class counters
/// and static stalls (mulh latency, qnt compare cycles) eagerly, so only
/// the base cycle/instruction and intra-block hazard are batched for them.
void op_static_delta(const SbOp& o, PerfCounters& d, mem::MemStats& m) {
  d.instructions += 1;
  d.cycles += 1 + o.hazard;
  d.load_use_stall_cycles += o.hazard;
  switch (o.kind) {
    case SbKind::kConst:
    case SbKind::kAddImm:
      d.scalar_alu_ops += 1;
      break;
    case SbKind::kMac:
      d.scalar_alu_ops += 1;
      d.mul_ops += 1;
      d.mac_ops += 1;
      break;
    case SbKind::kMem:
      if (o.flags & iflag::kIsStore) {
        d.stores += 1;
        m.stores += 1;
        m.store_bytes += o.aux;
      } else {
        d.loads += 1;
        m.loads += 1;
        m.load_bytes += o.aux;
      }
      break;
    case SbKind::kDotp:
      d.dotp_ops[o.aux] += 1;
      // Mixed dots carry their baked mpc selector in imm; the per-selector
      // breakdown rides alongside the region counter above.
      if (o.flags & iflag::kDotMixed) {
        d.mixed_dotp_ops[static_cast<unsigned>(o.imm)] += 1;
      }
      break;
    default:
      break;
  }
}

#ifdef XPULP_SB_HOST_SIMD
/// Host-SIMD dot kernels, bit-identical to dotp_lanes<W, false>: widen
/// every lane to 16 bits with its operand's signedness, multiply-accumulate
/// pairs into 32-bit lanes (a sum of <=8 products of 16-bit values cannot
/// overflow 32 bits — this is why pmaddwd is used and not the saturating
/// pmaddubsw), and fold. Lane sums wrap mod 2^32 exactly like the scalar
/// kernel's u32 adds.

inline i32 host_dot8(u32 a, u32 b, u32 sum, bool sa, bool sb) {
  const __m128i va = _mm_cvtsi32_si128(static_cast<int>(a));
  const __m128i vb = _mm_cvtsi32_si128(static_cast<int>(b));
  const __m128i wa = sa ? _mm_cvtepi8_epi16(va) : _mm_cvtepu8_epi16(va);
  const __m128i wb = sb ? _mm_cvtepi8_epi16(vb) : _mm_cvtepu8_epi16(vb);
  const u64 q =
      static_cast<u64>(_mm_cvtsi128_si64(_mm_madd_epi16(wa, wb)));
  return static_cast<i32>(sum + static_cast<u32>(q) +
                          static_cast<u32>(q >> 32));
}

/// Nibbles of `v` spread into eight bytes: even nibbles in the low four,
/// odd in the high four. Lane order is irrelevant to a dot product as
/// long as both operands use the same one.
inline u64 spread4(u32 v) {
  return (v & 0x0F0F0F0Fu) |
         ((static_cast<u64>(v) >> 4) & 0x0F0F0F0F) << 32;
}

inline i32 host_dot4(u32 a, u32 b, u32 sum, bool sa, bool sb) {
  // Spread the nibbles into bytes, then sign-extend nibble-in-byte via the
  // (x ^ 8) - 8 identity where signed.
  const auto expand = [](u32 v) {
    return _mm_cvtsi64_si128(static_cast<long long>(spread4(v)));
  };
  const __m128i k8 = _mm_set1_epi8(8);
  __m128i va = expand(a);
  __m128i vb = expand(b);
  if (sa) va = _mm_sub_epi8(_mm_xor_si128(va, k8), k8);
  if (sb) vb = _mm_sub_epi8(_mm_xor_si128(vb, k8), k8);
  const __m128i wa = sa ? _mm_cvtepi8_epi16(va) : _mm_cvtepu8_epi16(va);
  const __m128i wb = sb ? _mm_cvtepi8_epi16(vb) : _mm_cvtepu8_epi16(vb);
  __m128i p = _mm_madd_epi16(wa, wb);
  p = _mm_add_epi32(p, _mm_shuffle_epi32(p, 0xEE));
  const u64 q = static_cast<u64>(_mm_cvtsi128_si64(p));
  return static_cast<i32>(sum + static_cast<u32>(q) +
                          static_cast<u32>(q >> 32));
}

/// The 16 crumbs of `v` spread into 16 bytes: crumb 4j + k lands in byte
/// 4k + j. Any fixed lane order serves a dot product whose operands share
/// it.
inline __m128i spread2(u32 v) {
  const u64 m = 0x03030303u;
  const u64 lo = (v & m) | ((v >> 2) & m) << 32;
  const u64 hi = ((v >> 4) & m) | ((v >> 6) & m) << 32;
  return _mm_set_epi64x(static_cast<long long>(hi),
                        static_cast<long long>(lo));
}

/// Sign-extend crumb-in-byte lanes via the (x ^ 2) - 2 identity.
inline __m128i sext2(__m128i v) {
  const __m128i k2 = _mm_set1_epi8(2);
  return _mm_sub_epi8(_mm_xor_si128(v, k2), k2);
}

inline i32 host_dot2(u32 a, u32 b, u32 sum, bool sa, bool sb) {
  // After spreading (and sign extension where signed) every lane is an
  // exact int8 value, so one sign-extending widening serves all signs.
  __m128i va = spread2(a);
  __m128i vb = spread2(b);
  if (sa) va = sext2(va);
  if (sb) vb = sext2(vb);
  __m128i p = _mm_add_epi32(
      _mm_madd_epi16(_mm_cvtepi8_epi16(va), _mm_cvtepi8_epi16(vb)),
      _mm_madd_epi16(_mm_cvtepi8_epi16(_mm_srli_si128(va, 8)),
                     _mm_cvtepi8_epi16(_mm_srli_si128(vb, 8))));
  p = _mm_add_epi32(p, _mm_shuffle_epi32(p, 0xEE));
  const u64 q = static_cast<u64>(_mm_cvtsi128_si64(p));
  return static_cast<i32>(sum + static_cast<u32>(q) +
                          static_cast<u32>(q >> 32));
}

/// Raw lane-0 replication turning a .sc operand into a full vector. Lane
/// extension happens inside the kernels, so replicating the unextended
/// bits is exactly the dotp_lanes<W, true> semantics.
inline u32 rep8(u32 b) { return (b & 0xFFu) * 0x01010101u; }
inline u32 rep4(u32 b) { return (b & 0xFu) * 0x11111111u; }
inline u32 rep2(u32 b) { return (b & 0x3u) * 0x55555555u; }

/// Widens the weight word of a mixed dot product to its activation lane
/// width, two table lookups per word: lut[v] holds the widened lanes of
/// weight byte v, sign- or zero-extended. The widened word then feeds the
/// uniform kernel of the activation width (host_dot8 for 8x4 and 8x2,
/// host_dot4 for 4x2) with unchanged signedness flags.
struct LaneExpander {
  std::array<u32, 256> lut{};
  /// 0xff when the weight lanes span two bytes (8x4, 4x2), else 0: the
  /// second lookup then reads lut[0] == 0.
  u32 hi_mask = 0;
  u32 widen(u32 w) const {
    return lut[w & 0xFFu] | lut[(w >> 8) & hi_mask] << 16;
  }
};

constexpr LaneExpander make_expander(u32 sel, bool sign) {
  const unsigned wa = isa::mixed_width_a(sel);
  const unsigned wb = isa::mixed_width_b(sel);
  LaneExpander e;
  e.hi_mask = (32 / wa) * wb > 8 ? 0xFFu : 0u;
  for (u32 v = 0; v < 256; ++v) {
    u32 out = 0;
    for (unsigned i = 0; i < 8 / wb; ++i) {
      u32 lane = (v >> (i * wb)) & low_mask(wb);
      if (sign && (lane >> (wb - 1)) != 0) lane |= ~low_mask(wb);
      out |= (lane & low_mask(wa)) << (i * wa);
    }
    e.lut[v] = out;
  }
  return e;
}

/// The expander table, keyed by (mpc selector, weight signedness).
constexpr std::array<std::array<LaneExpander, 2>, isa::kMpcSelCount>
    kLaneExpanders = {{
        {make_expander(0, false), make_expander(0, true)},
        {make_expander(1, false), make_expander(1, true)},
        {make_expander(2, false), make_expander(2, true)},
    }};

const LaneExpander& lane_expander(u32 sel, bool sb) {
  return kLaneExpanders[sel][sb ? 1 : 0];
}

/// Mixed dot product through the expander table: bit-identical to
/// dotp_lanes_mixed_sel for every legal selector.
inline i32 host_dot_mixed(u32 sel, u32 a, u32 b, u32 sum, bool sa, bool sb) {
  const u32 wb = lane_expander(sel, sb).widen(b);
  return sel == 2 ? host_dot4(a, wb, sum, sa, sb)
                  : host_dot8(a, wb, sum, sa, sb);
}

// The kConvInner lane kernels: all four dots of the 2x2 block, returned
// as [x0.w0, x1.w0, x0.w1, x1.w1] (x: the rs1 words, w: the rs2 words).

inline __m128i conv_dot8(u32 x0, u32 x1, u32 w0, u32 w1, bool sa, bool sb) {
  const __m128i va = _mm_cvtsi64_si128(static_cast<long long>(
      static_cast<u64>(x0) | static_cast<u64>(x1) << 32));
  const __m128i vb0 = _mm_cvtsi64_si128(static_cast<long long>(
      static_cast<u64>(w0) | static_cast<u64>(w0) << 32));
  const __m128i vb1 = _mm_cvtsi64_si128(static_cast<long long>(
      static_cast<u64>(w1) | static_cast<u64>(w1) << 32));
  const __m128i wa = sa ? _mm_cvtepi8_epi16(va) : _mm_cvtepu8_epi16(va);
  const __m128i wb0 = sb ? _mm_cvtepi8_epi16(vb0) : _mm_cvtepu8_epi16(vb0);
  const __m128i wb1 = sb ? _mm_cvtepi8_epi16(vb1) : _mm_cvtepu8_epi16(vb1);
  return _mm_hadd_epi32(_mm_madd_epi16(wa, wb0), _mm_madd_epi16(wa, wb1));
}

inline __m128i conv_dot4(u32 x0, u32 x1, u32 w0, u32 w1, bool sb) {
  // Unsigned-first pmaddubsw (compile-time guaranteed), pair sums
  // <= 2*15*15 so the s16 saturation is unreachable.
  const __m128i a16 = _mm_set_epi64x(static_cast<long long>(spread4(x1)),
                                     static_cast<long long>(spread4(x0)));
  __m128i b0 = _mm_set1_epi64x(static_cast<long long>(spread4(w0)));
  __m128i b1 = _mm_set1_epi64x(static_cast<long long>(spread4(w1)));
  if (sb) {
    const __m128i k8 = _mm_set1_epi8(8);
    b0 = _mm_sub_epi8(_mm_xor_si128(b0, k8), k8);
    b1 = _mm_sub_epi8(_mm_xor_si128(b1, k8), k8);
  }
  const __m128i ones = _mm_set1_epi16(1);
  return _mm_hadd_epi32(_mm_madd_epi16(_mm_maddubs_epi16(a16, b0), ones),
                        _mm_madd_epi16(_mm_maddubs_epi16(a16, b1), ones));
}

inline __m128i conv_dot2(u32 x0, u32 x1, u32 w0, u32 w1, bool sb) {
  // Unsigned-first pmaddubsw over 16 byte lanes per word; pair sums
  // <= 2*3*3, far from the s16 saturation.
  const __m128i a0 = spread2(x0);
  const __m128i a1 = spread2(x1);
  __m128i b0 = spread2(w0);
  __m128i b1 = spread2(w1);
  if (sb) {
    b0 = sext2(b0);
    b1 = sext2(b1);
  }
  const __m128i ones = _mm_set1_epi16(1);
  const auto dot = [&ones](__m128i a, __m128i b) {
    return _mm_madd_epi16(_mm_maddubs_epi16(a, b), ones);
  };
  return _mm_hadd_epi32(_mm_hadd_epi32(dot(a0, b0), dot(a1, b0)),
                        _mm_hadd_epi32(dot(a0, b1), dot(a1, b1)));
}

/// Recognize the 2x2-blocked MatMul inner body (SbShape::kConvInner) and
/// pick its lane kernel:
///   ops[0..3]  post-increment word loads (any registers, any order);
///   ops[4..7]  four dot products of one kind — same format, or all
///              mixed (sb_compile bakes one mpc selector into every mixed
///              dot of a plan) — over two activation words x two weight
///              words, one accumulator each.
/// The structural requirements are exactly what makes the batched
/// macro-op handler equivalent to executing the four dots in sequence:
/// identical format/sign flags, the 2x2 operand pattern, and destination
/// registers that are distinct and never read as dot operands (loads need
/// no constraints — the handler sequences them like the generic loop).
/// The nibble and crumb kernels multiply via pmaddubsw, so their first
/// operand must be unsigned; signed-first blocks stay on the generic path.
std::optional<SbConvLanes> conv_inner_lanes(const SuperblockPlan& p) {
  if (!p.is_hwloop || p.ops.size() != 8) return std::nullopt;
  for (size_t k = 0; k < 4; ++k) {
    const SbOp& o = p.ops[k];
    if (o.kind != SbKind::kMem) return std::nullopt;
    const u16 f = o.flags;
    if ((f & iflag::kIsStore) || !(f & iflag::kMemPostInc) ||
        (f & iflag::kMemRegOff) || o.aux != 4) {
      return std::nullopt;
    }
  }
  const SbOp& d0 = p.ops[4];
  const bool mixed = (d0.flags & iflag::kDotMixed) != 0;
  SbConvLanes lanes{};
  if (mixed) {
    lanes = d0.imm == 2 ? SbConvLanes::kMixedNibbles : SbConvLanes::kMixedBytes;
  } else if (d0.fmt == isa::SimdFmt::kB) {
    lanes = SbConvLanes::kBytes;
  } else if (d0.fmt == isa::SimdFmt::kN) {
    lanes = SbConvLanes::kNibbles;
  } else if (d0.fmt == isa::SimdFmt::kC) {
    lanes = SbConvLanes::kCrumbs;
  } else {
    return std::nullopt;
  }
  const bool bytes =
      lanes == SbConvLanes::kBytes || lanes == SbConvLanes::kMixedBytes;
  if (!bytes && (d0.flags & iflag::kDotSignedA)) return std::nullopt;
  constexpr u16 kDotMask = iflag::kDotAccum | iflag::kDotSignedA |
                           iflag::kDotSignedB | iflag::kDotMixed;
  for (size_t k = 4; k < 8; ++k) {
    const SbOp& o = p.ops[k];
    if (o.kind != SbKind::kDotp || o.fmt != d0.fmt) return std::nullopt;
    if ((o.flags & kDotMask) != (d0.flags & kDotMask)) return std::nullopt;
  }
  if (p.ops[4].rs1 != p.ops[6].rs1 || p.ops[5].rs1 != p.ops[7].rs1) {
    return std::nullopt;
  }
  if (p.ops[4].rs2 != p.ops[5].rs2 || p.ops[6].rs2 != p.ops[7].rs2) {
    return std::nullopt;
  }
  for (size_t k = 4; k < 8; ++k) {
    const u8 rd = p.ops[k].rd;
    if (rd == 0) return std::nullopt;
    for (size_t j = 4; j < 8; ++j) {
      if (j != k && p.ops[j].rd == rd) return std::nullopt;
      if (p.ops[j].rs1 == rd || p.ops[j].rs2 == rd) return std::nullopt;
    }
  }
  return lanes;
}
#endif  // XPULP_SB_HOST_SIMD

bool is_conditional_branch(Mnemonic op) {
  using M = Mnemonic;
  switch (op) {
    case M::kBeq: case M::kBne: case M::kBlt: case M::kBge:
    case M::kBltu: case M::kBgeu: case M::kPBeqimm: case M::kPBneimm:
      return true;
    default:
      return false;
  }
}

}  // namespace

bool conv_macro_op_built() {
#ifdef XPULP_SB_HOST_SIMD
  return true;
#else
  return false;
#endif
}

void Core::sb_note_backedge(addr_t branch_pc, addr_t target) {
  SbHeatEntry& e = sb_heat_[(branch_pc >> 1) & (kSbHeatSize - 1)];
  if (e.pc != branch_pc) {
    e.pc = branch_pc;
    e.count = 1;
    return;
  }
  if (++e.count >= kSbHeatThreshold) {
    e.count = 0;
    sb_candidate_ = target;
    sb_candidate_branch_ = branch_pc;
  }
}

u64 SbKey::hash() const {
  // FNV-1a over the encodings, then the scalar fields.
  u64 h = 0xcbf29ce484222325ull;
  const auto mix = [&h](u64 v) {
    h ^= v;
    h *= 0x100000001b3ull;
  };
  for (const u32 r : raw) mix(r);
  mix(pc);
  mix(static_cast<u64>(mpc) << 1 | static_cast<u64>(is_hwloop));
  return h;
}

void Core::sb_recompute_extent() {
  sb_lo_ = ~addr_t{0};
  sb_hi_ = 0;
  for (const auto& [entry, p] : sb_bound_) {
    sb_lo_ = std::min(sb_lo_, entry);
    sb_hi_ = std::max(sb_hi_, entry + p->len);
  }
  if (sb_bound_.empty()) sb_lo_ = sb_hi_ = 0;
}

void Core::sb_free(SuperblockPlan* plan) {
  auto [it, last] = sb_plans_.equal_range(plan->key.hash());
  for (; it != last; ++it) {
    if (it->second.get() == plan) {
      sb_plans_.erase(it);
      return;
    }
  }
}

void Core::sb_release(SuperblockPlan* plan) {
  if (--plan->refs == 0 && plan != sb_active_) sb_free(plan);
}

void Core::sb_invalidate_range(addr_t a, unsigned size) {
  const u64 sa = a;
  const u64 se = sa + size;
  if (sb_active_ != nullptr && se > sb_active_entry_ &&
      sa < static_cast<u64>(sb_active_entry_) + sb_active_->len) {
    // The fused loop is executing this copy right now (self-modifying
    // store): the burst bails at the next op boundary. The plan itself
    // outlives the burst even when this was its last binding (sb_exit).
    sb_active_dirty_ = true;
  }
  bool changed = false;
  for (auto it = sb_bound_.begin(); it != sb_bound_.end();) {
    SuperblockPlan* p = it->second;
    if (se > it->first && sa < static_cast<u64>(it->first) + p->len) {
      // Only this copy's binding goes; other copies keep the shared plan.
      sb_stats_.invalidations += 1;
      changed = true;
      it = sb_bound_.erase(it);
      sb_release(p);
    } else {
      ++it;
    }
  }
  for (auto it = sb_rejects_.begin(); it != sb_rejects_.end();) {
    // The patched region may compile now; forget the rejection.
    if (se > it->first && sa < it->second) {
      it = sb_rejects_.erase(it);
    } else {
      ++it;
    }
  }
  if (changed) sb_recompute_extent();
}

void Core::sb_evict_mixed_plans() {
  // A value-changing write to the precision-status CSR (or a checkpoint
  // restore with a different mpc) invalidates every plan that baked the
  // old selector into its fused dot bodies: unbinding every copy frees
  // them. CSR ops never compile into a block, so this cannot fire from
  // inside a burst executing the plan — but restore paths could in
  // principle; mirror sb_invalidate_range's live-plan handling for safety.
  bool changed = false;
  for (auto it = sb_bound_.begin(); it != sb_bound_.end();) {
    SuperblockPlan* p = it->second;
    if (p->uses_mixed) {
      sb_stats_.invalidations += 1;
      sb_stats_.mpc_evictions += 1;
      changed = true;
      if (p == sb_active_) sb_active_dirty_ = true;
      it = sb_bound_.erase(it);
      sb_release(p);
    } else {
      ++it;
    }
  }
  if (changed) sb_recompute_extent();
}

void Core::sb_clear() {
  sb_bound_.clear();
  sb_plans_.clear();
  sb_rejects_.clear();
  sb_heat_.fill({});
  sb_candidate_ = kNoSbCandidate;
  sb_candidate_branch_ = 0;
  sb_active_ = nullptr;
  sb_active_dirty_ = false;
  sb_lo_ = sb_hi_ = 0;
}

SuperblockPlan* Core::sb_bind(addr_t start, addr_t branch_pc) {
  // Block bounds from the trigger: a hardware loop whose start register
  // equals `start` gives exact bounds; otherwise the heat counter recorded
  // the backward branch that targets `start`.
  const bool is_hwloop = branch_pc == 0;
  addr_t end = 0;  // one past the last *body* byte
  if (is_hwloop) {
    for (unsigned l = 0; l < 2; ++l) {
      if (hwl_count_[l] > 0 && hwl_start_[l] == start) {
        end = hwl_end_[l];
        break;
      }
    }
  } else {
    end = branch_pc;
  }

  const auto reject = [&]() -> SuperblockPlan* {
    sb_stats_.compile_rejects += 1;
    if (sb_rejects_.size() >= 64) sb_rejects_.clear();  // bounded memory
    sb_rejects_.emplace_back(start, std::max(end, start) + 4);
    return nullptr;
  };

  if (end < start || end - start > 4 * kSbMaxOps) return reject();

  // Content address of the body at `start`: its encodings, plus the entry
  // pc or the mpc selector when the compiled plan would bake either in.
  SbKey key;
  key.is_hwloop = is_hwloop;
  bool mixed = false;
  try {
    for (addr_t pc = start; pc < end;) {
      const Instr& in = fetch_decode(pc);
      if (pc + in.size > end) return reject();  // straddles the boundary
      if (key.raw.size() >= kSbMaxOps) return reject();
      key.raw.push_back(in.raw);
      if (in.cls == isa::ExecClass::kAuipc) key.pc = start;
      if (in.flags & iflag::kDotMixed) mixed = true;
      pc += in.size;
    }
    if (!is_hwloop) key.raw.push_back(fetch_decode(branch_pc).raw);
  } catch (...) {
    // Decode walked off mapped memory; the interpreter will fault at the
    // precise instruction if execution ever reaches it.
    return reject();
  }
  if (mixed) key.mpc = static_cast<u8>(mpc_);

  const u64 hash = key.hash();
  SuperblockPlan* plan = nullptr;
  for (auto [it, last] = sb_plans_.equal_range(hash); it != last; ++it) {
    if (it->second->key == key) {
      plan = it->second.get();
      sb_stats_.plan_reuses += 1;
      break;
    }
  }
  if (plan == nullptr) {
    std::unique_ptr<SuperblockPlan> fresh = sb_compile(start, branch_pc, end);
    if (fresh == nullptr) return reject();
    fresh->key = std::move(key);
    plan = sb_plans_.emplace(hash, std::move(fresh))->second.get();
  }

  plan->refs += 1;
  sb_bound_.emplace(start, plan);
  if (sb_bound_.size() == 1) {
    sb_lo_ = start;
    sb_hi_ = start + plan->len;
  } else {
    sb_lo_ = std::min(sb_lo_, start);
    sb_hi_ = std::max(sb_hi_, start + plan->len);
  }
  return plan;
}

std::unique_ptr<SuperblockPlan> Core::sb_compile(addr_t start,
                                                 addr_t branch_pc,
                                                 addr_t end) {
  // sb_bind already bounded the walk; every nullptr below is a static
  // ineligibility it records as a reject.
  const bool is_hwloop = branch_pc == 0;
  auto plan = std::make_unique<SuperblockPlan>();
  plan->is_hwloop = is_hwloop;

  u8 prev_load_rd = 0;  // op[0]'s entry hazard is dynamic, not static
  for (addr_t pc = start; pc < end;) {
    // Copy: fetch_decode returns a reference into the decode cache,
    // which later fetches may reallocate. The walk cannot fault: sb_bind
    // decoded every instruction of the block already.
    const Instr in = fetch_decode(pc);
    if (in.flags & feature_guard_) return nullptr;  // would trap

    SbOp o{};
    o.rd = in.rd;
    o.rs1 = in.rs1;
    o.rs2 = in.rs2;
    o.flags = in.flags;
    o.fmt = in.fmt;
    o.cls = in.cls;
    o.op = in.op;
    o.imm = in.imm;
    using C = isa::ExecClass;
    switch (in.cls) {
      case C::kLui:
        o.kind = SbKind::kConst;
        break;
      case C::kAuipc:
        o.kind = SbKind::kConst;
        o.imm = static_cast<i32>(pc + static_cast<u32>(in.imm));
        break;
      case C::kAluImm:
        o.kind = in.op == Mnemonic::kAddi ? SbKind::kAddImm : SbKind::kAluImm;
        break;
      case C::kAluReg:
        o.kind = SbKind::kAluReg;
        break;
      case C::kMem:
        o.kind = SbKind::kMem;
        o.aux = in.mem_size;
        break;
      case C::kSimdDotp:
        o.kind = SbKind::kDotp;
        if (in.flags & iflag::kDotMixed) {
          // Virtual SIMD: the operand formats live in the precision-
          // status CSR. Bake the current selector into the plan (imm is
          // unused by dot ops); any later mpc write evicts the plan. The
          // reserved selector would trap, so it never compiles.
          if (mpc_ >= isa::kMpcSelCount) return nullptr;
          o.aux = static_cast<u8>(mixed_region(mpc_));
          o.imm = static_cast<i32>(mpc_);
          plan->uses_mixed = true;
          plan->baked_mpc = static_cast<u8>(mpc_);
        } else {
          o.aux = static_cast<u8>(region_for(in.fmt));
        }
        break;
      case C::kPulpScalar:
        if (in.op == Mnemonic::kPMac || in.op == Mnemonic::kPMsu) {
          o.kind = SbKind::kMac;
          o.aux = in.op == Mnemonic::kPMsu;
        } else if (in.op == Mnemonic::kPInsert ||
                   in.op == Mnemonic::kPBclr || in.op == Mnemonic::kPBset) {
          // Illegal bit-field shapes trap with the faulting pc. Width
          // legality is a static property of the immediates, so verify
          // it here and keep compiled blocks IllegalInstruction-free
          // instead of repairing a stale pc at run time.
          const unsigned width = static_cast<unsigned>(in.imm2) + 1;
          const unsigned pos = static_cast<unsigned>(in.imm);
          if (pos + width > 32) return nullptr;
          o.kind = SbKind::kHandler;
        } else {
          o.kind = SbKind::kHandler;
        }
        break;
      case C::kMulDiv:
      case C::kSimdAlu:
      case C::kSimdElem:
      case C::kSimdQnt:
        o.kind = SbKind::kHandler;
        break;
      default:
        // Control flow, hwloop setup, CSR (reads live cycle counters),
        // fence/ecall/ebreak, illegal: never fused.
        return nullptr;
    }

    if (prev_load_rd != 0 && reads_reg(o, prev_load_rd)) {
      o.hazard = static_cast<u8>(timing_.load_use_penalty);
    }
    prev_load_rd = load_dest(o);

    plan->op_off.push_back(pc - start);
    plan->ops.push_back(o);
    plan->instrs.push_back(in);
    pc += in.size;
  }

  if (!is_hwloop) {
    const Instr in = fetch_decode(branch_pc);
    if (!is_conditional_branch(in.op)) return nullptr;
    if (in.flags & feature_guard_) return nullptr;
    if (branch_pc + static_cast<u32>(in.imm) != start) return nullptr;
    SbOp b{};
    b.kind = SbKind::kBranch;
    b.op = in.op;
    b.rs1 = in.rs1;
    b.rs2 = in.rs2;
    b.flags = in.flags;
    if (in.op == Mnemonic::kPBeqimm || in.op == Mnemonic::kPBneimm) {
      b.imm = static_cast<i32>(sign_extend(in.imm2, 5));
    }
    if (prev_load_rd != 0 && reads_reg(b, prev_load_rd)) {
      b.hazard = static_cast<u8>(timing_.load_use_penalty);
    }
    plan->branch = b;
    plan->len = branch_pc + in.size - start;
    plan->op_off.push_back(branch_pc - start);
  } else {
    if (plan->ops.empty()) return nullptr;
    plan->len = end - start;
    plan->op_off.push_back(end - start);
  }

  // Single-region dot-product blocks let the fused loop keep that region's
  // operand latches in host registers for the whole burst (0xff = none or
  // mixed; the per-op note_dotp path handles those).
  {
    u8 dr = 0xff;
    bool mixed = false;
    for (const SbOp& o : plan->ops) {
      if (o.kind != SbKind::kDotp) continue;
      if (dr == 0xff) {
        dr = o.aux;
      } else if (dr != o.aux) {
        mixed = true;
      }
    }
    plan->dotp_region = mixed ? u8{0xff} : dr;
  }
#ifdef XPULP_SB_HOST_SIMD
  if (const auto lanes = conv_inner_lanes(*plan)) {
    plan->shape = SbShape::kConvInner;
    plan->conv_lanes = *lanes;
  }
#endif

  // Worst-case dynamic cycles per iteration in slim memory mode, for the
  // sampled-burst arming check. Conservative per class: a memory op can
  // pay the misaligned penalty, a divide the maximal significant-bit
  // latency, a quantization op its threshold walk plus fetch stalls.
  {
    u64 dyn = 0;
    for (const SbOp& o : plan->ops) {
      switch (o.cls) {
        case isa::ExecClass::kMem: dyn += 2; break;
        case isa::ExecClass::kMulDiv: dyn += 40; break;
        case isa::ExecClass::kSimdQnt: dyn += 64; break;
        default: break;
      }
    }
    plan->max_dyn_iter = dyn;
  }

  // Batched static accounting: per-op prefixes for mid-iteration repair,
  // plus the full-iteration deltas the fused loop applies.
  const size_t n = plan->ops.size();
  plan->perf_prefix.resize(n + 1);
  plan->mem_prefix.resize(n + 1);
  PerfCounters pacc{};
  mem::MemStats macc{};
  for (size_t i = 0; i < n; ++i) {
    plan->perf_prefix[i] = pacc;
    plan->mem_prefix[i] = macc;
    op_static_delta(plan->ops[i], pacc, macc);
  }
  plan->perf_prefix[n] = pacc;
  plan->mem_prefix[n] = macc;
  plan->iter_mem = macc;
  if (is_hwloop) {
    plan->iter_perf = pacc;
    // All but the final iteration charge a hardware-loop backedge; the
    // burst exit subtracts the final one when the count is exhausted.
    plan->iter_perf.hwloop_backedges = 1;
    plan->exit_perf = pacc;  // unused: hwloop exits need no extra delta
    plan->exit_last_load_rd = load_dest(plan->ops[n - 1]);
    if (plan->exit_last_load_rd != 0 &&
        reads_reg(plan->ops[0], plan->exit_last_load_rd)) {
      plan->wrap_hazard = static_cast<u8>(timing_.load_use_penalty);
    }
  } else {
    const SbOp& b = plan->branch;
    PerfCounters taken = pacc;
    taken.instructions += 1;
    taken.cycles += 1 + b.hazard + timing_.taken_branch_penalty;
    taken.load_use_stall_cycles += b.hazard;
    taken.branch_stall_cycles += timing_.taken_branch_penalty;
    taken.taken_branches += 1;
    PerfCounters fall = pacc;
    fall.instructions += 1;
    fall.cycles += 1 + b.hazard;
    fall.load_use_stall_cycles += b.hazard;
    fall.not_taken_branches += 1;
    plan->iter_perf = taken;
    plan->exit_perf = fall;
    // The op before op[0] on later iterations is the branch — never a
    // load — so both wrap_hazard and the exit last-load slot stay 0.
  }

  sb_stats_.blocks_compiled += 1;
  return plan;
}

u64 Core::superblock_enter(addr_t start, addr_t branch_pc, u64 budget) {
  // The ungated config broadcasts EX-stage operands per instruction (a
  // power-model effect the batched loop can't reproduce), and reference
  // dispatch / tracing want the plain interpreters.
  if (!cfg_.superblock || !cfg_.clock_gating) return 0;
  SuperblockPlan* plan = nullptr;
  if (const auto b = sb_bound_.find(start); b != sb_bound_.end()) {
    plan = b->second;
  } else {
    for (const auto& r : sb_rejects_) {
      if (r.first == start) return 0;
    }
    plan = sb_bind(start, branch_pc);
    if (plan == nullptr) return 0;
  }
  if (attr_) {
    // A burst charges all of its cost to one region: bank up to this
    // boundary (start == pc_), then refuse plans that leave the region run.
    attr_check();
    if (start + plan->len - attr_lo_ > attr_len_) {
      sb_stats_.region_rejects += 1;
      return 0;
    }
  }
  return sb_execute(*plan, start, budget);
}

void Core::sb_exit(SuperblockPlan& plan) {
  sb_active_ = nullptr;
  sb_active_dirty_ = false;
  // Every binding went while the burst ran (self-modifying store or mpc
  // eviction): the deferred free. `plan` dangles past this point.
  if (plan.refs == 0) sb_free(&plan);
}

u64 Core::sb_execute(SuperblockPlan& plan, addr_t entry, u64 budget) {
  // Sampled bursts pay per-iteration (and, near the deadline, per-op)
  // boundary checks; unsampled bursts compile to the pre-xtel loop. A
  // cluster burst horizon (burst_due_, set by run_burst) rides the same
  // deadline — whichever comes first is deadline_.
  return deadline_ != kNoSampleDue
             ? sb_execute_impl<true>(plan, entry, budget)
             : sb_execute_impl<false>(plan, entry, budget);
}

template <bool Sampled>
u64 Core::sb_execute_impl(SuperblockPlan& plan, addr_t entry, u64 budget) {
  const size_t n = plan.ops.size();
  const addr_t end = entry + plan.len;
  const u64 per_iter = n + (plan.is_hwloop ? 0 : 1);

  // Mixed-format plans bake the precision-status selector into their dot
  // ops. mpc writes evict them, so a mismatch here should be unreachable —
  // but a stale plan misfusing silently would be a correctness bug, so
  // reject defensively and let the interpreter (and a recompile) take over.
  if (plan.uses_mixed && plan.baked_mpc != mpc_) [[unlikely]] {
    sb_stats_.entry_rejects += 1;
    return 0;
  }

  // Entry guards: the plan is bound at `entry`; verify the *current*
  // machine state still matches the structure it was compiled for, else
  // fall back to the interpreter for this visit.
  int l = -1;
  if (plan.is_hwloop) {
    if (hwl_start_[0] == entry && hwl_end_[0] == end && hwl_count_[0] > 0) {
      l = 0;
    } else if (hwl_start_[1] == entry && hwl_end_[1] == end &&
               hwl_count_[1] > 0) {
      l = 1;
    } else {
      sb_stats_.entry_rejects += 1;
      return 0;
    }
    // The other loop must not claim an instruction boundary inside the
    // block: the interpreter services L0 before L1 at every boundary, so
    // a shared end address is only safe when we fused L0.
    const unsigned o = 1 - static_cast<unsigned>(l);
    if (hwl_count_[o] != 0) {
      const addr_t oe = hwl_end_[o];
      if ((oe > entry && oe < end) || (oe == end && l != 0)) {
        sb_stats_.entry_rejects += 1;
        return 0;
      }
    }
  } else if (hwl_active_) {
    // A live hardware loop could take a backedge at any boundary inside
    // the block; the plan has no hwloop checks compiled in.
    sb_stats_.entry_rejects += 1;
    return 0;
  }

  u64 iters = budget / per_iter;
  u64 count_entry = 0;
  if (plan.is_hwloop) {
    count_entry = hwl_count_[l];
    iters = std::min<u64>(iters, count_entry);
  }
  if (iters == 0) return 0;  // budget smaller than one iteration

  sb_stats_.entries += 1;
  sb_active_ = &plan;
  sb_active_entry_ = entry;
  sb_active_dirty_ = false;

  // op[0]'s load-use hazard against the live entry context (first
  // iteration only; afterwards it wraps around statically).
  const SbOp* const ops = plan.ops.data();
  unsigned hz0 = 0;
  if (last_load_rd_ != 0) {
    const SbOp& first = n != 0 ? ops[0] : plan.branch;
    if (reads_reg(first, last_load_rd_)) hz0 = timing_.load_use_penalty;
  }

  // Burst-local hoisting. None of the ops a plan can contain reach these
  // core members except the inlined kMem/kDotp bodies below (kMem never
  // compiles to kHandler, note_dotp is only called from the dotp fast
  // path, and broadcast_operands only runs ungated — excluded at entry),
  // so they can live in host registers for the whole burst and be flushed
  // once at every exit:
  //   - the LSU data latch and its toggle count;
  //   - the operand latches of the block's single dot-product region.
  // The memory model's dynamic stall sources are loop-invariant too: with
  // no hook and no contention injector, an aligned in-bounds access costs
  // zero stalls and nothing else in access_stalls() can fire.
  const u32 msize = mem_.size();
  // A burst sink restores slim eligibility under an access hook: the
  // cluster's burst phase installs a hook that only logs and returns zero
  // stalls, so the slim path's "aligned in-bounds accesses are stall-free"
  // invariant (and max_dyn_iter's dynamic bound) hold again — the slim
  // fast path then appends each access directly to the sink with the same
  // exact coordinates the hook latches would have carried, skipping the
  // per-access std::function dispatch entirely.
  const bool sink_log = burst_sink_ != nullptr;
  const bool mem_slim =
      (!mem_.has_access_hook() || sink_log) &&
      mem_.contention_period() == 0;
  // With an access hook installed (cluster runs) the slim path is off, so
  // every access flows through access_stalls()/the handler's access_cycles.
  // Latch the exact reference coordinates (pc, instruction-start cycle,
  // access cycle) the hook reads via access_pc()/access_start()/
  // access_cycle() — the same prefix arithmetic as the repair tables, plus
  // the op's own hazard, which the step paths charge before the access.
  const bool latch = mem_.has_access_hook();

  // Sampling: the run loop fires at instruction boundaries before entering
  // a burst, so cycles < due here. The true cycle count at any boundary
  // inside the burst is perf_.cycles (entry value + eager dynamic charges)
  // + done * iter_cycles (batched statics of completed iterations)
  // + the current iteration's static prefix — exactly the repair-table
  // arithmetic, so a deadline crossing is detected at the same boundary
  // the interpreter would sample at. An iteration whose worst-case end
  // cannot reach the deadline ("unarmed") runs at full fused speed; with
  // an access hook or contention injector the dynamic bound does not hold
  // and every iteration is armed.
  const cycles_t due = Sampled ? deadline_ : kNoSampleDue;
  // Attribution of deadline flushes: a strictly-earlier burst horizon is
  // the binding deadline (burst_flushes); otherwise the sampler is.
  const bool burst_bound = Sampled && burst_due_ < sample_due_;
  const u64 c_iter = plan.iter_perf.cycles;
  const u64 max_dyn = mem_slim ? plan.max_dyn_iter : (~u64{0} >> 1);
  u32 lld = last_load_data_;
  u64 toggles = 0;
  const unsigned dr = plan.dotp_region;
  const bool hoist_dotp = dr != 0xff && dotp_.clock_gating();
  u32 dla = 0, dlb = 0;
  u64 dtog = 0, dops = 0;
  if (hoist_dotp) {
    dla = dotp_.latch_a(dr);
    dlb = dotp_.latch_b(dr);
  }
  const auto flush = [&]() {
    last_load_data_ = lld;
    perf_.lsu_data_toggles += toggles;
    if (hoist_dotp) {
      dotp_.set_latches(dr, dla, dlb);
      dotp_.add_activity(dr, dtog, dops);
    }
  };

#ifdef XPULP_SB_HOST_SIMD
  // The kConvInner macro-op handler needs the slim memory path (an access
  // hook or contention injector must observe every access in order) and
  // the hoisted dot latches; otherwise the generic op loop serves.
  const bool use_conv =
      plan.shape == SbShape::kConvInner && mem_slim && hoist_dotp;
  u8 cx0 = 0, cx1 = 0, cw0 = 0, cw1 = 0;
  bool conv_sa = false, conv_sb = false, conv_acc = false;
  // Tested in order, so the uniform byte and nibble bodies of the paper
  // layers take one and two compares per iteration.
  const SbConvLanes conv_lanes = plan.conv_lanes;
  const LaneExpander* conv_widen = nullptr;  // mixed plans only
  if (use_conv) {
    cx0 = ops[4].rs1;
    cx1 = ops[5].rs1;
    cw0 = ops[4].rs2;
    cw1 = ops[6].rs2;
    conv_sa = (ops[4].flags & iflag::kDotSignedA) != 0;
    conv_sb = (ops[4].flags & iflag::kDotSignedB) != 0;
    conv_acc = (ops[4].flags & iflag::kDotAccum) != 0;
    if (ops[4].flags & iflag::kDotMixed) {
      conv_widen = &lane_expander(static_cast<u32>(ops[4].imm), conv_sb);
    }
  }
#endif

  // The static accounting of completed iterations is applied ONCE at burst
  // exit, scaled by `done` (it is linear in the iteration count); only
  // dynamic effects (memory stalls, toggles, handler-internal latencies)
  // touch the counters inside the loop. Same for the hardware-loop count
  // register. Every exit path below — completion, budget, SMC bail, trap —
  // therefore finishes with the batched add before leaving.
  u64 done = 0;      // completed iterations (incl. a final not-taken one)
  u64 macro = 0;     // of those, retired by the macro-op handler
  u64 retired = 0;   // instructions retired by this burst
  size_t i = 0;      // op cursor, read by the trap-repair path
  bool fell_through = false;  // branch plans: exited via the not-taken side
  bool exhausted = false;     // hwloop plans: final iteration retired
  try {
    for (;;) {
      // Per-iteration guards, checked at the block-start boundary: a
      // store from a previous iteration hit this block, or a trace hook
      // attached mid-burst (possible only via a handler side effect —
      // cheap to check, so check it anyway).
      if (done != 0 && (sb_active_dirty_ || trace_)) [[unlikely]] {
        pc_ = entry;
        last_load_rd_ = plan.is_hwloop ? plan.exit_last_load_rd : 0;
        break;
      }
      if constexpr (Sampled) {
        // Iteration-start boundary: the previous iteration's final op or
        // backedge crossed the deadline. Identical repair to the dirty
        // bail above — the run loop fires the sample at this boundary.
        if (done != 0 && perf_.cycles + done * c_iter >= due) [[unlikely]] {
          pc_ = entry;
          last_load_rd_ = plan.is_hwloop ? plan.exit_last_load_rd : 0;
          (burst_bound ? sb_stats_.burst_flushes : sb_stats_.sample_flushes) +=
              1;
          break;
        }
      }
      const unsigned hz = done == 0 ? hz0 : plan.wrap_hazard;
      if (hz != 0) {
        perf_.cycles += hz;
        perf_.load_use_stall_cycles += hz;
      }

      // Armed: this iteration's worst case can reach the deadline, so run
      // the generic loop with per-op boundary checks instead of the
      // macro-op path (whose intermediate boundaries are not visible).
      bool armed = false;
      if constexpr (Sampled) {
        armed = perf_.cycles + done * c_iter + c_iter + max_dyn >= due;
      }
      bool sample_break = false;

      size_t completed = n;
#ifdef XPULP_SB_HOST_SIMD
      if (use_conv && !armed) {
        // Loads first, sequenced exactly like the generic loop (`i` stays
        // the op cursor so a faulting load repairs identically).
        for (i = 0; i < 4; ++i) {
          const SbOp& o = ops[i];
          const u32 base = regs_[o.rs1];
          if (!((base & 3u) == 0 &&
                static_cast<u64>(base) + 4 <= msize)) [[unlikely]] {
            if (latch) {
              hook_pc_ = entry + plan.op_off[i];
              hook_start_ = perf_.cycles + done * c_iter +
                            plan.perf_prefix[i].cycles - (i == 0 ? hz : 0);
              hook_cycle_ = hook_start_ + (i == 0 ? hz : o.hazard);
            }
            const unsigned stalls = mem_.access_stalls(base, 4, false);
            if (stalls != 0) {
              perf_.cycles += stalls;
              perf_.mem_stall_cycles += stalls;
            }
          } else if (sink_log) {
            const cycles_t s = perf_.cycles + done * c_iter +
                               plan.perf_prefix[i].cycles -
                               (i == 0 ? hz : 0);
            burst_sink_->push_back(
                {s, entry + plan.op_off[i], base,
                 static_cast<u16>(i == 0 ? hz : o.hazard), 4, 0});
          }
          const u32 v = mem_.load_unchecked(base, 4);
          toggles += hamming_distance(lld, v);
          lld = v;
          set_reg(o.rd, v);
          set_reg(o.rs1, base + static_cast<u32>(o.imm));
        }
        // All four dots in two SIMD multiply-accumulate steps over the
        // 2x2 operand block; nothing past the loads can fault. Mixed
        // weight words are widened once each; the dot latches below see
        // the raw register words.
        const u32 x0 = regs_[cx0];
        const u32 x1 = regs_[cx1];
        const u32 w0 = regs_[cw0];
        const u32 w1 = regs_[cw1];
        __m128i s;  // [x0.w0, x1.w0, x0.w1, x1.w1]
        if (conv_lanes == SbConvLanes::kBytes) {
          s = conv_dot8(x0, x1, w0, w1, conv_sa, conv_sb);
        } else if (conv_lanes == SbConvLanes::kNibbles) {
          s = conv_dot4(x0, x1, w0, w1, conv_sb);
        } else if (conv_lanes == SbConvLanes::kCrumbs) {
          s = conv_dot2(x0, x1, w0, w1, conv_sb);
        } else if (conv_lanes == SbConvLanes::kMixedBytes) {
          s = conv_dot8(x0, x1, conv_widen->widen(w0), conv_widen->widen(w1),
                        conv_sa, conv_sb);
        } else {  // SbConvLanes::kMixedNibbles
          s = conv_dot4(x0, x1, conv_widen->widen(w0), conv_widen->widen(w1),
                        conv_sb);
        }
        alignas(16) i32 d[4];
        _mm_store_si128(reinterpret_cast<__m128i*>(d), s);
        for (unsigned k = 0; k < 4; ++k) {
          const SbOp& o = ops[4 + k];
          const u32 acc = conv_acc ? regs_[o.rd] : 0;
          set_reg(o.rd, acc + static_cast<u32>(d[k]));
        }
        // The dot-latch sequence x0,x1,x0,x1 / w0,w0,w1,w1 folds to four
        // Hamming distances (two of the b-side steps are zero).
        dtog += hamming_distance(dla, x0) + 3 * hamming_distance(x0, x1) +
                hamming_distance(dlb, w0) + hamming_distance(w0, w1);
        dla = x1;
        dlb = w1;
        dops += 4;
        macro += 1;
      } else
#endif
      for (i = 0; i < n; ++i) {
        const SbOp& o = ops[i];
        switch (o.kind) {
          case SbKind::kConst:
            set_reg(o.rd, static_cast<u32>(o.imm));
            break;
          case SbKind::kAddImm:
            set_reg(o.rd, regs_[o.rs1] + static_cast<u32>(o.imm));
            break;
          case SbKind::kAluImm:
            alu_body(plan.instrs[i], static_cast<u32>(o.imm));
            break;
          case SbKind::kAluReg:
            alu_body(plan.instrs[i], regs_[o.rs2]);
            break;
          case SbKind::kMac: {
            const u32 prod = regs_[o.rs1] * regs_[o.rs2];
            set_reg(o.rd, o.aux ? regs_[o.rd] - prod : regs_[o.rd] + prod);
            break;
          }
          case SbKind::kMem: {
            const u16 f = o.flags;
            const bool store = (f & iflag::kIsStore) != 0;
            const u32 base = regs_[o.rs1];
            const u32 off = (f & iflag::kMemRegOff)
                                ? regs_[store ? o.rd : o.rs2]
                                : static_cast<u32>(o.imm);
            const addr_t addr =
                (f & iflag::kMemPostInc) ? base : base + off;
            // Aligned in-bounds accesses are stall-free in slim mode;
            // everything else (misaligned, out-of-range, hook, contention)
            // takes the full accounting/trapping path.
            if (!(mem_slim && (addr & (o.aux - 1u)) == 0 &&
                  static_cast<u64>(addr) + o.aux <= msize)) [[unlikely]] {
              if (latch) {
                hook_pc_ = entry + plan.op_off[i];
                hook_start_ = perf_.cycles + done * c_iter +
                              plan.perf_prefix[i].cycles - (i == 0 ? hz : 0);
                hook_cycle_ = hook_start_ + (i == 0 ? hz : o.hazard);
              }
              const unsigned stalls = mem_.access_stalls(addr, o.aux, store);
              if (stalls != 0) {
                perf_.cycles += stalls;
                perf_.mem_stall_cycles += stalls;
              }
            } else if (sink_log) {
              // Slim fast path under deferred arbitration: log directly
              // with the exact hook coordinates (misaligned/out-of-range
              // accesses took the access_stalls branch, whose hook call
              // appends to the same log — program order is preserved).
              const cycles_t s = perf_.cycles + done * c_iter +
                                 plan.perf_prefix[i].cycles -
                                 (i == 0 ? hz : 0);
              burst_sink_->push_back(
                  {s, entry + plan.op_off[i], addr,
                   static_cast<u16>(i == 0 ? hz : o.hazard),
                   static_cast<u8>(o.aux), static_cast<u8>(store)});
            }
            if (store) {
              mem_.store_unchecked(addr, regs_[o.rs2], o.aux);
              icache_invalidate(addr, o.aux);
            } else {
              u32 v = mem_.load_unchecked(addr, o.aux);
              if (f & iflag::kLoadSigned) {
                v = static_cast<u32>(sign_extend(v, o.aux * 8));
              }
              toggles += hamming_distance(lld, v);
              lld = v;
              set_reg(o.rd, v);
            }
            if (f & iflag::kMemPostInc) set_reg(o.rs1, base + off);
            if (store && sb_active_dirty_) [[unlikely]] {
              // Self-modifying store into this very block: stop at the
              // boundary after the store, before any stale decode runs.
              completed = i + 1;
              break;
            }
            break;
          }
          case SbKind::kDotp: {
            const u32 a = regs_[o.rs1];
            const u32 b = regs_[o.rs2];
            const u16 f = o.flags;
            const bool sa = (f & iflag::kDotSignedA) != 0;
            const bool sb = (f & iflag::kDotSignedB) != 0;
            const u32 acc = (f & iflag::kDotAccum) ? regs_[o.rd] : 0;
            i32 r = 0;
            if (f & iflag::kDotMixed) {
              // Baked selector (entry guard proved it still equals mpc_).
#ifdef XPULP_SB_HOST_SIMD
              r = host_dot_mixed(static_cast<u32>(o.imm), a, b, acc, sa, sb);
#else
              r = dotp_lanes_mixed_sel(static_cast<u32>(o.imm), a, b, acc,
                                       sa, sb);
#endif
            } else
            switch (o.fmt) {
              case isa::SimdFmt::kH: r = dotp_lanes<16, false>(a, b, acc, sa, sb); break;
              case isa::SimdFmt::kHSc: r = dotp_lanes<16, true>(a, b, acc, sa, sb); break;
#ifdef XPULP_SB_HOST_SIMD
              case isa::SimdFmt::kB: r = host_dot8(a, b, acc, sa, sb); break;
              case isa::SimdFmt::kBSc: r = host_dot8(a, rep8(b), acc, sa, sb); break;
              case isa::SimdFmt::kN: r = host_dot4(a, b, acc, sa, sb); break;
              case isa::SimdFmt::kNSc: r = host_dot4(a, rep4(b), acc, sa, sb); break;
              case isa::SimdFmt::kC: r = host_dot2(a, b, acc, sa, sb); break;
              case isa::SimdFmt::kCSc: r = host_dot2(a, rep2(b), acc, sa, sb); break;
#else
              case isa::SimdFmt::kB: r = dotp_lanes<8, false>(a, b, acc, sa, sb); break;
              case isa::SimdFmt::kBSc: r = dotp_lanes<8, true>(a, b, acc, sa, sb); break;
              case isa::SimdFmt::kN: r = dotp_lanes<4, false>(a, b, acc, sa, sb); break;
              case isa::SimdFmt::kNSc: r = dotp_lanes<4, true>(a, b, acc, sa, sb); break;
              case isa::SimdFmt::kC: r = dotp_lanes<2, false>(a, b, acc, sa, sb); break;
              case isa::SimdFmt::kCSc: r = dotp_lanes<2, true>(a, b, acc, sa, sb); break;
#endif
              default: break;  // unreachable: validated at compile time
            }
            if (hoist_dotp) {
              dtog += hamming_distance(dla, a) + hamming_distance(dlb, b);
              dla = a;
              dlb = b;
              dops += 1;
            } else {
              dotp_.note_dotp(o.aux, a, b);
            }
            set_reg(o.rd, static_cast<u32>(r));
            break;
          }
          case SbKind::kHandler:
            // A handler can reach the access hook (pv.qnt threshold
            // fetches); its accesses all issue at the instruction's start
            // plus its hazard, before any latency is charged.
            if (latch) [[unlikely]] {
              hook_pc_ = entry + plan.op_off[i];
              hook_start_ = perf_.cycles + done * c_iter +
                            plan.perf_prefix[i].cycles - (i == 0 ? hz : 0);
              hook_cycle_ = hook_start_ + (i == 0 ? hz : o.hazard);
            }
            (this->*kExecTable[static_cast<size_t>(o.cls)])(plan.instrs[i]);
            break;
          case SbKind::kBranch:
            break;  // unreachable: the terminal branch is not in ops
        }
        if constexpr (Sampled) {
          // Boundary after op i: armed iterations check every one against
          // the deadline (an SMC bail this op takes precedence — its
          // boundary is the same and the repair identical).
          if (armed && completed == n &&
              perf_.cycles + done * c_iter +
                      plan.perf_prefix[i + 1].cycles >= due) [[unlikely]] {
            if (i + 1 < n) {
              completed = i + 1;
              sample_break = true;
            } else if (!plan.is_hwloop) {
              // Pre-branch boundary: the interpreter samples before
              // executing the branch; bail below instead of branching.
              sample_break = true;
            }
            // hwloop with i + 1 == n: that boundary is the backedge
            // target, which the next iteration-start check (or the run
            // loop after a normal exit) observes with identical state.
          }
        }
        if (completed != n) break;
      }

      if (completed != n) [[unlikely]] {
        // Mid-iteration SMC or sample-deadline bail at an exact boundary:
        // batched statics for the completed ops (the iteration-entry
        // hazard was charged eagerly above), pc at the next op, last-load
        // tracking from the op before it.
        add_counters(perf_, plan.perf_prefix[completed]);
        mem_.add_counts(plan.mem_prefix[completed]);
        pc_ = entry + plan.op_off[completed];
        last_load_rd_ = load_dest(ops[completed - 1]);
        retired += completed;
        if (sample_break) {
          (burst_bound ? sb_stats_.burst_flushes : sb_stats_.sample_flushes) +=
              1;
        } else {
          sb_stats_.smc_bails += 1;
        }
        break;
      }

      if (plan.is_hwloop) {
        retired += n;
        done += 1;
        if (done == iters) {
          exhausted = done == count_entry;
          pc_ = exhausted ? end : entry;
          last_load_rd_ = plan.exit_last_load_rd;
          break;
        }
      } else {
        if (sb_active_dirty_ || sample_break) [[unlikely]] {
          // A store in this iteration hit the block with the terminal
          // branch's bytes covered by the invalidation too — or the
          // sampling deadline landed on the pre-branch boundary. Bail at
          // the branch boundary so it re-runs interpreted (from fresh
          // decode / after the sample fires).
          add_counters(perf_, plan.perf_prefix[n]);
          mem_.add_counts(plan.mem_prefix[n]);
          pc_ = entry + plan.op_off[n];
          if (n != 0) last_load_rd_ = load_dest(ops[n - 1]);
          retired += n;
          if (sb_active_dirty_) {
            sb_stats_.smc_bails += 1;
          } else {
            (burst_bound ? sb_stats_.burst_flushes
                         : sb_stats_.sample_flushes) += 1;
          }
          break;
        }
        const SbOp& b = plan.branch;
        const u32 a = regs_[b.rs1];
        const u32 b2 = regs_[b.rs2];
        bool taken = false;
        switch (b.op) {
          case Mnemonic::kBeq: taken = a == b2; break;
          case Mnemonic::kBne: taken = a != b2; break;
          case Mnemonic::kBlt:
            taken = static_cast<i32>(a) < static_cast<i32>(b2);
            break;
          case Mnemonic::kBge:
            taken = static_cast<i32>(a) >= static_cast<i32>(b2);
            break;
          case Mnemonic::kBltu: taken = a < b2; break;
          case Mnemonic::kBgeu: taken = a >= b2; break;
          case Mnemonic::kPBeqimm: taken = static_cast<i32>(a) == b.imm; break;
          case Mnemonic::kPBneimm: taken = static_cast<i32>(a) != b.imm; break;
          default: break;  // unreachable: validated at compile time
        }
        retired += per_iter;
        done += 1;
        last_load_rd_ = 0;  // the branch is always the last instruction
        if (!taken) {
          fell_through = true;
          pc_ = end;
          break;
        }
        if (done == iters) {
          pc_ = entry;
          break;
        }
      }
    }
  } catch (...) {
    // op[i] trapped mid-iteration. Only memory faults can reach a compiled
    // block (IllegalInstruction is statically excluded at compile time),
    // and MemoryFault carries the address, not the pc — but repair the pc
    // anyway so the machine state equals the interpreter's at the faulting
    // instruction: batched statics for the `done` whole iterations (all
    // taken, for branch plans) and the completed ops of this one, the
    // faulting op's own hazard (the step paths charge it before
    // executing), pc at the op, last-load tracking from its predecessor.
    flush();
    add_scaled(perf_, plan.iter_perf, done);
    mem_.add_counts(plan.iter_mem, done);
    if (plan.is_hwloop) hwl_count_[l] -= static_cast<u32>(done);
    add_counters(perf_, plan.perf_prefix[i]);
    mem_.add_counts(plan.mem_prefix[i]);
    if (i > 0) {
      const unsigned hzf = ops[i].hazard;
      if (hzf != 0) {
        perf_.cycles += hzf;
        perf_.load_use_stall_cycles += hzf;
      }
      last_load_rd_ = load_dest(ops[i - 1]);
    } else if (done > 0) {
      last_load_rd_ = plan.is_hwloop ? plan.exit_last_load_rd : 0;
    }  // else: entry value, untouched by the burst, is already correct
    pc_ = entry + plan.op_off[i];
    sb_stats_.trap_bails += 1;
    sb_stats_.fused_iterations += done;
    sb_stats_.fused_instructions += retired + i;
    sb_stats_.macro_iterations += macro;
    sb_exit(plan);
    throw;
  }

  // Batched static accounting of the completed iterations.
  flush();
  add_scaled(perf_, plan.iter_perf, done - (fell_through ? 1 : 0));
  if (fell_through) add_counters(perf_, plan.exit_perf);
  mem_.add_counts(plan.iter_mem, done);
  if (plan.is_hwloop) {
    hwl_count_[l] -= static_cast<u32>(done);
    if (exhausted) {
      // The final iteration falls through instead of taking the backedge.
      perf_.hwloop_backedges -= 1;
      update_hwl_active();
    }
  }
  sb_stats_.fused_iterations += done;
  sb_stats_.fused_instructions += retired;
  sb_stats_.macro_iterations += macro;
  sb_exit(plan);
  return retired;
}

}  // namespace xpulp::sim
