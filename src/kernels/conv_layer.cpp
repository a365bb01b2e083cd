#include "kernels/conv_layer.hpp"

#include <algorithm>
#include <cassert>

#include "common/bitops.hpp"
#include "common/error.hpp"
#include "obs/profiler.hpp"
#include "qnn/pack.hpp"

namespace xpulp::kernels {

const char* variant_name(ConvVariant v) {
  switch (v) {
    case ConvVariant::kXpulpV2_8b: return "xpulpv2-8b";
    case ConvVariant::kXpulpV2_Sub: return "xpulpv2-subbyte";
    case ConvVariant::kXpulpV2_SubShf: return "xpulpv2-subbyte-shuffle";
    case ConvVariant::kXpulpNN_SwQ: return "xpulpnn-swquant";
    case ConvVariant::kXpulpNN_HwQ: return "xpulpnn-hwquant";
    case ConvVariant::kXpulpNN_Mixed: return "xpulpnn-mixed";
  }
  return "?";
}

u32 mixed_sel_for(unsigned in_bits, unsigned w_bits) {
  for (u32 sel = 0; sel < isa::kMpcSelCount; ++sel) {
    if (isa::mixed_width_a(sel) == in_bits &&
        isa::mixed_width_b(sel) == w_bits) {
      return sel;
    }
  }
  throw SimError("no mpc selector for " + std::to_string(in_bits) + "x" +
                 std::to_string(w_bits) + " operands");
}

bool variant_supported(ConvVariant v, const sim::CoreConfig& cfg) {
  switch (v) {
    case ConvVariant::kXpulpV2_8b:
    case ConvVariant::kXpulpV2_Sub:
    case ConvVariant::kXpulpV2_SubShf:
      return cfg.xpulpv2;
    case ConvVariant::kXpulpNN_SwQ:
    case ConvVariant::kXpulpNN_HwQ:
    case ConvVariant::kXpulpNN_Mixed:
      return cfg.xpulpv2 && cfg.xpulpnn;
  }
  return false;
}

namespace {

constexpr addr_t align16(addr_t a) { return (a + 15u) & ~15u; }

unsigned inner_iterations(const qnn::ConvSpec& s) {
  // Grouped (mixed) kernels consume one *activation* word per iteration
  // (the weight word covers the same 32/in_bits lanes); uniform kernels
  // consume one weight word.
  const unsigned per_iter = 32 / (grouped_weights(s) ? s.in_bits : s.w_bits);
  return (static_cast<unsigned>(s.filter_elems()) + per_iter - 1) / per_iter;
}

// Weight range per width: full two's-complement range except 4-bit, where
// we stay symmetric to keep accumulators comfortably inside int16.
std::pair<i32, i32> weight_range(unsigned bits) {
  switch (bits) {
    case 8: return {-100, 100};
    case 4: return {-7, 7};
    case 2: return {-2, 1};
    default: throw SimError("unsupported weight width");
  }
}

}  // namespace

bool grouped_weights(const qnn::ConvSpec& spec) {
  // Only kXpulpNN_Mixed accepts unequal widths; the generator rejects them
  // for every uniform variant.
  return spec.in_bits != spec.w_bits;
}

ConvMemLayout ConvMemLayout::plan(const qnn::ConvSpec& spec, ConvVariant v,
                                  addr_t data_base, int buffer_slots) {
  ConvMemLayout l;
  l.code = 0;
  l.filter_stride =
      grouped_weights(spec)
          ? qnn::packed_filter_stride_grouped(spec.filter_elems(),
                                              spec.in_bits)
          : qnn::packed_filter_stride(spec.filter_elems(), spec.w_bits);

  const unsigned iters = inner_iterations(spec);
  const bool unpacked_buf = (v == ConvVariant::kXpulpV2_Sub ||
                             v == ConvVariant::kXpulpV2_SubShf);
  l.buf_bytes = unpacked_buf ? iters * (32 / spec.w_bits) : iters * 4;

  addr_t cursor = align16(data_base);
  l.input = cursor;
  cursor = align16(cursor + qnn::packed_bytes(spec.in_h * spec.in_w * spec.in_c,
                                              spec.in_bits));
  l.weights = cursor;
  cursor = align16(cursor + l.filter_stride * static_cast<u32>(spec.out_c));
  l.thresholds = cursor;
  if (spec.out_bits != 8) {
    cursor = align16(cursor + (1u << spec.out_bits) * 2u *
                                  static_cast<u32>(spec.out_c));
  }
  l.buf0 = cursor;
  cursor = align16(cursor + l.buf_bytes);
  l.buf1 = cursor;
  cursor = align16(cursor + l.buf_bytes);
  // Additional slots for the remaining cores of a cluster.
  cursor += l.buffer_slot_stride() * static_cast<u32>(buffer_slots - 1);
  l.output = cursor;
  l.output_bytes = qnn::packed_bytes(
      spec.out_h() * spec.out_w() * spec.out_c, spec.out_bits);
  return l;
}

namespace {

/// Input codes, then weights, in the seed's stream order; thresholds and
/// the 8-bit shift are left to the caller.
ConvLayerData draw(const qnn::ConvSpec& spec, u64 seed) {
  Rng rng(seed);
  ConvLayerData d;
  d.spec = spec;

  d.input = qnn::Tensor({spec.in_h, spec.in_w, spec.in_c});
  const i32 act_max = static_cast<i32>((1u << spec.in_bits) - 1);
  for (int i = 0; i < d.input.elems(); ++i) {
    d.input.flat(i) = rng.uniform(0, act_max);
  }

  d.weights = qnn::FilterBank(spec.out_c, {spec.k_h, spec.k_w, spec.in_c});
  const auto [wlo, whi] = weight_range(spec.w_bits);
  for (auto& w : d.weights.data()) w = rng.uniform(wlo, whi);
  return d;
}

/// Sub-byte thresholds at the quantiles of a layer's accumulators (HWC
/// order): per channel, or one layer-global set shared by every channel.
qnn::LayerThresholds quantile_layer(const std::vector<i32>& accs,
                                    const qnn::ConvSpec& spec, bool global) {
  for (const i32 acc : accs) {
    if (acc < -32768 || acc > 32767) {
      throw SimError("accumulator exceeds 16-bit pre-activation range");
    }
  }
  std::vector<qnn::Thresholds> per_channel;
  if (global) {
    per_channel.assign(static_cast<size_t>(spec.out_c),
                       qnn::quantile_thresholds(accs, spec.out_bits));
  } else {
    const size_t channels = static_cast<size_t>(spec.out_c);
    per_channel.reserve(channels);
    for (size_t oc = 0; oc < channels; ++oc) {
      std::vector<i32> ch;
      ch.reserve(accs.size() / channels);
      for (size_t i = oc; i < accs.size(); i += channels) ch.push_back(accs[i]);
      per_channel.push_back(
          qnn::quantile_thresholds(std::move(ch), spec.out_bits));
    }
  }
  return qnn::LayerThresholds(spec.out_bits, std::move(per_channel));
}

}  // namespace

ConvLayerData ConvLayerData::random(const qnn::ConvSpec& spec, u64 seed) {
  ConvLayerData d = draw(spec, seed);
  const std::vector<i32> accs =
      qnn::conv_accumulators(d.input, d.weights, spec);
  if (spec.out_bits == 8) {
    // The shift maps the largest accumulator near the top of the range.
    const i32 max_acc =
        std::max(1, *std::max_element(accs.begin(), accs.end()));
    u32 shift = 0;
    while ((max_acc >> shift) > 255) ++shift;
    d.spec.requant_shift = shift;
  } else {
    d.thresholds = quantile_layer(accs, spec, /*global=*/false);
  }
  return d;
}

TrainedLayer ConvLayerData::trained(const qnn::ConvSpec& spec, u64 seed,
                                    qnn::Tensor input) {
  if (input.shape() != qnn::Shape{spec.in_h, spec.in_w, spec.in_c}) {
    throw SimError("layer input shape differs from the spec");
  }
  if (spec.out_bits == 8) {
    ConvLayerData d = random(spec, seed);
    d.input = std::move(input);
    qnn::Tensor golden = d.golden();
    return {std::move(d), std::move(golden)};
  }
  ConvLayerData d = draw(spec, seed);
  d.input = std::move(input);
  const std::vector<i32> accs =
      qnn::conv_accumulators(d.input, d.weights, spec);
  const int levels = 1 << spec.out_bits;
  d.thresholds = quantile_layer(accs, spec,
                                spec.out_h() * spec.out_w() < 2 * levels);
  qnn::Tensor golden = qnn::requantize(accs, d.thresholds, spec);
  return {std::move(d), std::move(golden)};
}

qnn::Tensor ConvLayerData::golden() const {
  if (spec.out_bits == 8) {
    return qnn::conv2d_ref_u8(input, weights, spec);
  }
  return qnn::conv2d_ref(input, weights, thresholds, spec);
}

void load_conv_data(const ConvLayerData& data, const ConvMemLayout& layout,
                    mem::Memory& mem) {
  load_conv_data(data, layout, mem, mem, layout.weights);
}

void load_conv_data(const ConvLayerData& data, const ConvMemLayout& layout,
                    mem::Memory& mem, mem::Memory& weight_mem,
                    addr_t weight_addr) {
  const qnn::ConvSpec& spec = data.spec;
  const auto in_bytes = qnn::pack_tensor(data.input, spec.in_bits);
  mem.write_block(layout.input, in_bytes);
  const auto w_bytes =
      grouped_weights(spec)
          ? qnn::pack_filter_bank_grouped(data.weights, spec.in_bits,
                                          spec.w_bits)
          : qnn::pack_filter_bank(data.weights, spec.w_bits);
  weight_mem.write_block(weight_addr, w_bytes);
  if (spec.out_bits != 8) {
    const auto t_bytes = data.thresholds.serialize();
    mem.write_block(layout.thresholds, t_bytes);
  }
  mem.reset_stats();
}

qnn::Tensor read_conv_output(const qnn::ConvSpec& spec,
                             const ConvMemLayout& layout,
                             const mem::Memory& mem) {
  std::vector<u8> bytes(layout.output_bytes);
  mem.read_block(layout.output, bytes);
  return qnn::unpack_tensor(bytes, {spec.out_h(), spec.out_w(), spec.out_c},
                            spec.out_bits, /*is_signed=*/false);
}

ConvRunResult run_conv_layer(const ConvLayerData& data, ConvVariant v,
                             const sim::CoreConfig& cfg,
                             const ConvGenOptions& opts) {
  if (!variant_supported(v, cfg)) {
    throw SimError(std::string("variant ") + variant_name(v) +
                   " is not supported by core " + cfg.name);
  }
  const qnn::ConvSpec& spec = data.spec;
  ConvKernel kernel = generate_conv_kernel(spec, v, 0x40000, opts);

  mem::Memory mem;
  kernel.program.load(mem);
  load_conv_data(data, kernel.layout, mem);

  sim::Core core(mem, cfg);
  core.reset(kernel.program.entry(),
             kernel.program.base() + kernel.program.size_bytes());

  // Fig. 6 reports the quantization share, so kernels with quantization
  // ranges run with the core's in-loop region attribution attached: it
  // charges every counter delta to the region of the instruction that
  // caused it, bit-identical to obs::Profiler's region table, without a
  // per-instruction hook — every dispatch mode, superblocks included,
  // stays hot. Kernels without quantization code run unobserved.
  if (!kernel.quant_ranges.empty()) {
    core.set_region_attribution(kernel.regions.build_index(),
                                kernel.regions.size());
  }
  core.run(600'000'000);
  if (core.halt_reason() == sim::HaltReason::kInstrLimit) {
    throw SimError("kernel did not terminate");
  }
  if (core.halt_reason() != sim::HaltReason::kEcall) {
    throw SimError("kernel stopped for an unexpected reason");
  }

  ConvRunResult res;
  if (core.has_region_attribution()) {
    for (const obs::RegionStat& r :
         obs::attributed_region_stats(core, kernel.regions)) {
      if (r.name == "quant") res.quant_cycles += r.stat.cycles;
    }
  }
  res.output = read_conv_output(spec, kernel.layout, mem);
  res.perf = core.perf();
  res.activity = core.dotp_unit().activity();
  res.superblock = core.superblock_stats();
  res.mem_stats = mem.stats();
  res.code_bytes = kernel.program.size_bytes();
  res.macs = spec.macs();
  return res;
}

}  // namespace xpulp::kernels
