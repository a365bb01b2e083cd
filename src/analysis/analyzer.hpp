// ProgramAnalyzer: the xlint entry point. Statically verifies an assembled
// RV32IMC + XpulpV2 + XpulpNN program image before it runs:
//   - full decode sweep (illegal words, reserved-field/non-canonical forms,
//     unreachable code);
//   - CFG + dataflow (reads of never-written registers, static TCDM
//     bounds/alignment of li-addressed accesses);
//   - RI5CY hardware-loop legality and XpulpNN operand conventions
//     (dot-product accumulator reuse, pv.qnt threshold-tree setup).
// DESIGN.md §9 documents the rule set and its sources.
#pragma once

#include <vector>

#include "analysis/diagnostics.hpp"
#include "common/error.hpp"
#include "mem/memory.hpp"
#include "sim/core.hpp"
#include "xasm/program.hpp"

namespace xpulp::analysis {

struct AnalyzerOptions {
  /// TCDM size used for static bounds checks (0 disables them).
  u32 mem_size = mem::Memory::kDefaultSize;

  // ISA features of the target core; instructions needing an absent
  // feature are diagnosed instead of trapping at runtime.
  bool xpulpv2 = true;
  bool xpulpnn = true;
  bool hwloops = true;

  /// Registers assumed live-in at the entry point (bitmask; x0 is always
  /// initialized). Standalone kernels start from a cold register file, so
  /// the default assumes nothing; abi_entry_mask() models a function
  /// called under the RISC-V calling convention.
  u32 assume_initialized = 1;

  bool check_uninit_read = true;
  bool check_memory = true;
  bool check_hwloops = true;
  bool check_simd_conventions = true;

  /// sp/gp/tp/ra plus the a0-a7 argument registers.
  static u32 abi_entry_mask();

  /// Mirror a core configuration's ISA feature set.
  static AnalyzerOptions for_core(const sim::CoreConfig& cfg);
};

class ProgramAnalyzer {
 public:
  explicit ProgramAnalyzer(AnalyzerOptions opt = {}) : opt_(opt) {}

  /// Analyze an assembled program (entry == base for Assembler output).
  AnalysisReport analyze(const xasm::Program& prog) const;

  /// Analyze raw image bytes loaded at `base`, entering at `entry`.
  AnalysisReport analyze(addr_t base, const std::vector<u8>& bytes,
                         addr_t entry) const;

  const AnalyzerOptions& options() const { return opt_; }

 private:
  AnalyzerOptions opt_;
};

/// Thrown by the pre-run gate when analysis finds errors.
class AnalysisError : public SimError {
 public:
  AnalysisError(std::string message, AnalysisReport report)
      : SimError(std::move(message)), report_(std::move(report)) {}
  const AnalysisReport& report() const { return report_; }

 private:
  AnalysisReport report_;
};

/// Build a Core pre-run gate: on every reset with a known code
/// extent it re-analyzes the loaded image [entry, code_end) and throws
/// AnalysisError if any error-severity diagnostic is found.
sim::Core::PreRunGate make_pre_run_gate(AnalyzerOptions opt);

}  // namespace xpulp::analysis
