// Shared helpers for simulator tests: assemble a small program with a
// builder callback, run it on a configured core, and expose the final
// machine state.
#pragma once

#include <functional>

#include "kernels/conv_layer.hpp"
#include "mem/memory.hpp"
#include "qnn/ref_layers.hpp"
#include "sim/core.hpp"
#include "xasm/assembler.hpp"

namespace xpulp::test {

struct RunResult {
  mem::Memory mem;
  sim::PerfCounters perf;
  std::array<u32, 32> regs{};
  sim::HaltReason reason = sim::HaltReason::kRunning;
  sim::DotpActivity activity;
};

/// Assemble `body(asm)`, append ecall, run to halt; `setup` may preload
/// memory or registers before execution.
inline RunResult run_program(
    const std::function<void(xasm::Assembler&)>& body,
    sim::CoreConfig cfg = sim::CoreConfig::extended(),
    const std::function<void(mem::Memory&, sim::Core&)>& setup = {}) {
  xasm::Assembler a(0);
  body(a);
  a.ecall();
  xasm::Program prog = a.finish();

  RunResult r;
  prog.load(r.mem);
  sim::Core core(r.mem, std::move(cfg));
  core.reset(prog.entry());
  if (setup) setup(r.mem, core);
  r.reason = core.run(100'000'000);
  for (unsigned i = 0; i < 32; ++i) r.regs[i] = core.reg(i);
  r.perf = core.perf();
  r.activity = core.dotp_unit().activity();
  return r;
}

/// The paper layer with `in_bits` activations against `w_bits` grouped
/// weights, for the mixed-precision cluster and streamed tests. 4-bit
/// weights are symmetric, so the 8-bit shift/clip output spreads over its
/// codes. 2-bit weights ([-2, 1]) push every accumulator negative and would
/// clip an 8-bit output to all zeros, so those layers requantize to 4 bits
/// through calibrated thresholds instead.
inline qnn::ConvSpec mixed_paper_layer(unsigned in_bits, unsigned w_bits) {
  qnn::ConvSpec s = qnn::ConvSpec::paper_layer(8);
  s.in_bits = in_bits;
  s.w_bits = w_bits;
  s.out_bits = w_bits == 2 ? 4 : 8;
  return s;
}

/// A linear layer's own oracle, independent of the conv golden path:
/// qnn::linear_ref for sub-byte outputs, the 8-bit scale path otherwise.
inline qnn::Tensor linear_golden(const kernels::ConvLayerData& d) {
  if (d.spec.out_bits == 8) {
    return qnn::conv2d_ref_u8(d.input, d.weights, d.spec);
  }
  return qnn::linear_ref(d.input, d.weights, d.thresholds);
}

}  // namespace xpulp::test
