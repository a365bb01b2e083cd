// Static verification sweep over every paper kernel the generators can
// produce: conv variants (XpulpV2 8-bit, packed sub-byte baseline,
// shuffle-unpack ablation, XpulpNN software-/hardware-quantization),
// pooling (native sub-byte and unpack/repack), and linear layers — each
// analyzed against the ISA feature set of the core it targets. Used by
// `xlint --kernels` and the test harness; a kernel-generator bug that
// emits an illegal encoding, an uninitialized register read, or a
// malformed hardware loop shows up here before any simulation runs.
#pragma once

#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "obs/region.hpp"
#include "xasm/program.hpp"

namespace xpulp::analysis {

/// One generated kernel of the matrix.
struct SweepKernel {
  std::string name;  // e.g. "conv/xpulpnn_hwq/4b"
  xasm::Program program;
  /// Phase regions the generator marked (conv and linear kernels); empty
  /// for pooling kernels.
  obs::RegionMap regions;
  /// ISA feature set of the core the kernel targets.
  AnalyzerOptions options;
};

/// Generate the full kernel matrix, in analyze_paper_kernels() order.
std::vector<SweepKernel> paper_kernels();

struct KernelCheck {
  std::string name;        // e.g. "conv/xpulpnn_hwq/4b"
  AnalysisReport report;
};

/// Generate and analyze the full kernel matrix. Every entry's report is
/// expected clean (no diagnostics at all, warnings included).
std::vector<KernelCheck> analyze_paper_kernels();

}  // namespace xpulp::analysis
