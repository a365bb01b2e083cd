// Convolution-layer kernel generation and execution on the simulated cores.
//
// Four kernel variants mirror the configurations benchmarked in the paper:
//   kXpulpV2_8b   — 8-bit kernel using XpulpV2 (runs identically on the
//                   baseline RI5CY and the extended core);
//   kXpulpV2_Sub  — 4/2-bit kernel for the *baseline* RI5CY: operands are
//                   stored packed (quantization as memory compression) but
//                   the ISA tops out at 8-bit SIMD, so weights are unpacked
//                   element-wise in the inner loop and activations are
//                   unpacked to bytes during im2col; outputs are re-packed
//                   with bit-manipulation ops; staircase quantization runs
//                   in software;
//   kXpulpNN_SwQ  — 4/2-bit kernel using the XpulpNN sub-byte SIMD dot
//                   products but software (binary-tree) quantization — the
//                   first variant of Fig. 6;
//   kXpulpNN_HwQ  — full XpulpNN kernel with pv.qnt — the second variant of
//                   Fig. 6 and the headline configuration of Figs. 7-9.
//
// The generator plays the role of the compiler: output-pixel loops are
// specialized at generation time (padding patterns are baked per position),
// the channel loop and the dot-product loop execute at run time using
// hardware loops and post-increment addressing, exactly like the PULP-NN
// matrix-multiplication inner kernel (4 accumulators = 2 filters x 2
// output pixels).
#pragma once

#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "obs/region.hpp"
#include "qnn/ref_layers.hpp"
#include "sim/core.hpp"
#include "xasm/assembler.hpp"

namespace xpulp::kernels {

enum class ConvVariant {
  kXpulpV2_8b,
  kXpulpV2_Sub,
  /// Ablation: like kXpulpV2_Sub but weights are unpacked with a
  /// pv.shuffle + shift sequence (3 ops per byte-vector) instead of
  /// per-element p.extract/p.insert — the best a baseline XpulpV2 kernel
  /// could plausibly do. 4-bit only.
  kXpulpV2_SubShf,
  kXpulpNN_SwQ,
  kXpulpNN_HwQ,
  /// Mixed-precision virtual-SIMD kernel: activations in_bits (8 or 4)
  /// wide, weights w_bits (4 or 2) wide, pv.mlsdotusp inner loop with the
  /// operand formats selected by the mpc CSR (written once in the kernel
  /// prologue). Weights are packed lane-aligned grouped (one word per
  /// activation word). Outputs: 8-bit scale path or 4/2-bit pv.qnt.
  kXpulpNN_Mixed,
};

/// mpc selector for an (in_bits, w_bits) pair; throws SimError if the pair
/// is not one of (8,4), (8,2), (4,2).
u32 mixed_sel_for(unsigned in_bits, unsigned w_bits);

const char* variant_name(ConvVariant v);

struct TrainedLayer;

/// Host-side layer data (input codes, signed weights, per-channel
/// thresholds for sub-byte outputs). The one owner of a layer's
/// calibration (DESIGN.md §16): every factory derives the 8-bit shift or
/// the quantile thresholds from one qnn::conv_accumulators sweep. Sub-byte
/// factories throw SimError when an accumulator leaves the 16-bit
/// pre-activation range.
struct ConvLayerData {
  qnn::ConvSpec spec;
  qnn::Tensor input;
  qnn::FilterBank weights;
  qnn::LayerThresholds thresholds;  // empty for 8-bit outputs

  /// Deterministic synthetic data: input codes and weights drawn from
  /// `seed`, the 8-bit shift or per-channel quantile thresholds taken from
  /// that input's accumulators.
  static ConvLayerData random(const qnn::ConvSpec& spec, u64 seed);

  /// A layer deployed on a real `input`: random(spec, seed)'s weights and
  /// 8-bit shift, with sub-byte thresholds trained on `input`'s
  /// accumulators — per-channel quantiles, or layer-global ones when a
  /// channel has fewer than 2 * 2^out_bits output positions (e.g. a linear
  /// layer). Also returns the golden output of those accumulators. Throws
  /// SimError when `input` is not the spec's input shape.
  static TrainedLayer trained(const qnn::ConvSpec& spec, u64 seed,
                              qnn::Tensor input);

  /// Golden output via the reference layers.
  qnn::Tensor golden() const;
};

struct TrainedLayer {
  ConvLayerData data;
  qnn::Tensor golden;
};

/// Guest memory placement of one layer.
struct ConvMemLayout {
  addr_t code = 0;
  addr_t input = 0;
  addr_t weights = 0;
  addr_t thresholds = 0;
  addr_t buf0 = 0;  // im2col buffer, output pixel 0
  addr_t buf1 = 0;  // im2col buffer, output pixel 1
  addr_t output = 0;
  u32 filter_stride = 0;  // bytes between packed filters
  u32 buf_bytes = 0;      // size of one im2col buffer
  u32 output_bytes = 0;

  /// `buffer_slots` reserves im2col buffer pairs for that many cores.
  static ConvMemLayout plan(const qnn::ConvSpec& spec, ConvVariant v,
                            addr_t data_base, int buffer_slots = 1);

  /// Byte offset between consecutive buffer slots.
  u32 buffer_slot_stride() const { return ((buf_bytes + 15u) & ~15u) * 2; }
};

/// A generated kernel: the program plus instrumentation metadata.
struct ConvKernel {
  xasm::Program program;
  ConvMemLayout layout;
  /// PC ranges [lo, hi) of re-quantization code, for cycle attribution
  /// (Fig. 6 reports the quantization share of total cycles).
  std::vector<std::pair<addr_t, addr_t>> quant_ranges;
  /// Named phase regions ("im2col", "matmul", "quant") for the profiler;
  /// the quant ranges above are also registered here.
  obs::RegionMap regions;
};

/// Generator knobs for the ablation studies (DESIGN.md §7). Defaults
/// reproduce the PULP-NN kernel structure used in the paper.
struct ConvGenOptions {
  /// Use XpulpV2 zero-overhead hardware loops for the dot-product loop;
  /// when false, a decrement-and-branch loop quantifies their benefit.
  bool use_hwloops = true;
  /// Output pixels computed per matmul pass: 2 = the PULP-NN 4x2 blocking
  /// (2 filters x 2 pixels), 1 = a 2x1 kernel that reloads weights twice
  /// as often per output. Unset: the widest block the layer's output width
  /// allows — 2 when even, 1 when odd (e.g. a linear layer's single
  /// pixel). An explicit 2 on an odd width is rejected, never downgraded.
  std::optional<int> pixel_block;

  // ---- multi-core partitioning (src/cluster) ----
  /// Where this core's program is placed.
  addr_t code_base = 0;
  /// Output-row slice [row_begin, row_end) this program computes; -1 =
  /// all rows.
  int row_begin = 0;
  int row_end = -1;
  /// Total im2col buffer slots reserved in the layout and the slot this
  /// program uses (one slot per core).
  int buffer_slots = 1;
  int buffer_slot = 0;

  // ---- weight streaming (src/soc µDMA double buffering) ----
  /// Output-channel tile [ch_begin, ch_end) this program computes; -1 =
  /// all channels.
  int ch_begin = 0;
  int ch_end = -1;
  /// When nonzero, the matmul reads weights from this TCDM address (a DMA
  /// tile buffer holding the tile's filters back to back) instead of the
  /// layout's resident weight region.
  addr_t weights_base_override = 0;
  /// Use a caller-provided memory layout instead of planning one (weight
  /// streaming shrinks the resident weight region to the ping-pong
  /// buffer). Must outlive the generate call.
  const ConvMemLayout* layout = nullptr;
};

/// Generate the kernel program for a layer/variant. `data_base` is where
/// the planner starts placing tensors; code is placed at address 0.
ConvKernel generate_conv_kernel(const qnn::ConvSpec& spec, ConvVariant v,
                                addr_t data_base = 0x40000,
                                const ConvGenOptions& opts = {});

/// Result of running a generated kernel on a core.
struct ConvRunResult {
  qnn::Tensor output;
  sim::PerfCounters perf;
  sim::DotpActivity activity;  // dot-product-unit switching, for the power model
  mem::MemStats mem_stats;
  /// Superblock-engine coverage of the run (all zero with superblocks off).
  sim::SuperblockStats superblock;
  cycles_t quant_cycles = 0;  // cycles attributed to re-quantization code
  u32 code_bytes = 0;
  u64 macs = 0;

  double macs_per_cycle() const {
    return perf.cycles ? static_cast<double>(macs) / static_cast<double>(perf.cycles) : 0.0;
  }
};

// ---- The layer image (DESIGN.md §16): the one place that packs a layer
// into guest memory and reads it back, for every execution path.

/// True when a layer's weights are stored lane-aligned grouped (one weight
/// word per activation word): the mixed-precision layers, whose activation
/// and weight widths differ. Uniform layers pack flat. Decides both the
/// planned filter stride and the weight packer.
bool grouped_weights(const qnn::ConvSpec& spec);

/// Pack and write a layer's tensors (input, weights, thresholds) into
/// guest memory at the layout's addresses and reset the memory stats.
void load_conv_data(const ConvLayerData& data, const ConvMemLayout& layout,
                    mem::Memory& mem);

/// As above, but the weight image (out_c filters, layout.filter_stride
/// bytes apart) goes to `weight_mem` at `weight_addr` — the streamed path
/// keeps it in external L2 and DMAs tiles into the TCDM.
void load_conv_data(const ConvLayerData& data, const ConvMemLayout& layout,
                    mem::Memory& mem, mem::Memory& weight_mem,
                    addr_t weight_addr);

/// Read a layer's output tensor back from the layout's output region.
qnn::Tensor read_conv_output(const qnn::ConvSpec& spec,
                             const ConvMemLayout& layout,
                             const mem::Memory& mem);

/// Load data + kernel into a fresh memory image and run to completion on a
/// core with the given configuration. Throws SimError on guest faults.
ConvRunResult run_conv_layer(const ConvLayerData& data, ConvVariant v,
                             const sim::CoreConfig& cfg,
                             const ConvGenOptions& opts = {});

/// True if `v` is legal on a core configuration (sub-byte XpulpNN variants
/// need cfg.xpulpnn).
bool variant_supported(ConvVariant v, const sim::CoreConfig& cfg);

}  // namespace xpulp::kernels
