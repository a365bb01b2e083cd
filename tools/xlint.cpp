// xlint — static program verifier and ISA encoding-space auditor for
// XpulpNN binaries.
//
//   xlint --audit                 prove the ISA table overlap-free and
//                                 round-trip exact (incl. the exhaustive
//                                 16-bit compressed sweep)
//   xlint --kernels               generate every paper kernel (conv/pool/
//                                 linear, both ISAs) and verify each one
//   xlint [options] file.s ...    assemble and verify assembly sources
//
// Options for file mode:
//   --base ADDR      load address of the image (default 0)
//   --mem-size N     TCDM size in bytes for bounds checks (default 512 KiB)
//   --isa NAME       target core: "xpulpnn" (default) or "ri5cy"
//   --no-hwloops     target core without hardware loops
//   --assume-abi     treat ra/sp/gp/tp/a0-a7 as initialized at entry
//   --dump           print the decoded program before the report
//
// Exit status: 0 clean, 1 diagnostics/audit failures, 2 usage error.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/isa_audit.hpp"
#include "analysis/kernel_sweep.hpp"
#include "common/error.hpp"
#include "isa/decoder.hpp"
#include "isa/disasm.hpp"
#include "tool_cli.hpp"
#include "xasm/text_asm.hpp"

namespace {

using namespace xpulp;

void usage() {
  std::cerr << "usage: xlint --audit | --kernels | [--base ADDR] "
               "[--mem-size N] [--isa ri5cy|xpulpnn] [--no-hwloops] "
               "[--assume-abi] [--dump] file.s ...\n";
}

int run_audit() {
  const analysis::AuditResult r = analysis::audit_isa_encoding_space();
  std::cout << "encoding-space audit: " << r.checked << " checks";
  if (r.ok()) {
    std::cout << ", all passed\n"
              << "  - table entries pairwise non-overlapping\n"
              << "  - encode/decode round-trips bit-identical\n"
              << "  - 16-bit compressed space swept exhaustively\n"
              << "  - illegal-encoding bank rejected\n";
    return 0;
  }
  std::cout << ", " << r.failures.size() << " FAILED\n";
  for (const std::string& f : r.failures) std::cout << "  " << f << '\n';
  return 1;
}

int run_kernels() {
  int bad = 0;
  const auto checks = analysis::analyze_paper_kernels();
  for (const analysis::KernelCheck& c : checks) {
    if (c.report.clean()) {
      std::cout << "  OK    " << c.name << "  (" << c.report.instr_count
                << " instrs, " << c.report.hwloop_count << " hwloops)\n";
    } else {
      ++bad;
      std::cout << "  FAIL  " << c.name << '\n';
      for (const auto& d : c.report.diags) {
        std::cout << "        " << d.to_string() << '\n';
      }
    }
  }
  std::cout << checks.size() - bad << "/" << checks.size()
            << " generated kernels verify clean\n";
  return bad ? 1 : 0;
}

struct FileOptions {
  analysis::AnalyzerOptions opt;
  addr_t base = 0;
  bool dump = false;
};

int lint_file(const std::string& path, const FileOptions& fo) {
  std::ifstream f(path);
  if (!f) {
    std::cerr << "xlint: cannot open " << path << '\n';
    return 2;
  }
  std::ostringstream src;
  src << f.rdbuf();

  xasm::Program prog(fo.base, {});
  try {
    prog = xasm::assemble_text(src.str(), fo.base);
  } catch (const AsmError& e) {
    std::cout << path << ": assembly error: " << e.what() << '\n';
    return 1;
  }

  if (fo.dump) {
    for (u32 i = 0; i < prog.size_words(); ++i) {
      const addr_t pc = prog.base() + i * 4;
      std::string text;
      try {
        text = isa::disassemble(isa::decode(prog.words()[i], pc), pc);
      } catch (const IllegalInstruction&) {
        text = "<illegal>";
      }
      std::printf("  %08x: %08x  %s\n", pc, prog.words()[i], text.c_str());
    }
  }

  const analysis::AnalysisReport report =
      analysis::ProgramAnalyzer(fo.opt).analyze(prog);
  std::cout << path << ": " << report.to_string();
  return report.clean() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> files;
  FileOptions fo;
  bool audit = false;
  bool kernels = false;

  tools::OptionReader r("xlint", usage, argc, argv);
  while (r.next()) {
    const std::string& opt = r.opt();
    if (opt == "--audit") {
      audit = true;
    } else if (opt == "--kernels") {
      kernels = true;
    } else if (opt == "--base") {
      r.count(fo.base);
    } else if (opt == "--mem-size") {
      r.count(fo.opt.mem_size, 1);
    } else if (opt == "--isa") {
      std::string isa;
      r.choice(isa, {"ri5cy", "xpulpnn"});
      if (!isa.empty()) fo.opt.xpulpnn = isa == "xpulpnn";
    } else if (opt == "--no-hwloops") {
      fo.opt.hwloops = false;
    } else if (opt == "--assume-abi") {
      fo.opt.assume_initialized = analysis::AnalyzerOptions::abi_entry_mask();
    } else if (opt == "--dump") {
      fo.dump = true;
    } else if (opt.starts_with('-')) {
      r.reject();
    } else {
      files.push_back(opt);
    }
  }
  if (!r.finish()) return 2;

  if (audit || kernels) {
    int rc = 0;
    if (audit) rc |= run_audit();
    if (kernels) rc |= run_kernels();
    return rc;
  }
  if (files.empty()) {
    usage();
    return 2;
  }

  int rc = 0;
  for (const std::string& f : files) rc |= lint_file(f, fo);
  return rc;
}
