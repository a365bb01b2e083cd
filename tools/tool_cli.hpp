// Shared command-line front end of the tools: the option reader with
// strict number parsing (every tool), and for the conv-layer tools
// (xprof, xtel, xfault) the options they have in common, the bits/variant
// rules and the layer every tool runs. Malformed input of any kind is a
// usage error: the reader says why, prints the tool's usage, and the tool
// exits 2.
#pragma once

#include <concepts>
#include <functional>
#include <initializer_list>
#include <limits>
#include <string>

#include "common/types.hpp"
#include "kernels/conv_layer.hpp"
#include "obs/registry.hpp"
#include "obs/timeline.hpp"

namespace xpulp::tools {

/// Options every conv-layer tool takes.
struct LayerArgs {
  unsigned bits = 4;
  kernels::ConvVariant variant = kernels::ConvVariant::kXpulpNN_HwQ;
  bool small = false;     // 6x6x16->8 layer instead of the paper layer
  std::string json_path;  // registry JSON
};

/// Options of the tools that run the layer themselves (xprof, xtel).
struct RunArgs : LayerArgs {
  std::string core = "xpulpnn";  // ri5cy | xpulpnn
  bool check = true;             // verify output + reconciliation
  int cores = 1;                 // >1: cluster mode
  std::string trace_path;        // Chrome/Perfetto trace JSON
  std::string folded_path;       // collapsed flamegraph stacks
  std::string csv_path;          // registry CSV
};

/// Walks one tool's argv. Every accessor consumes the current option's
/// argument; a missing or malformed one is reported and ends the walk, so
/// an option handler is a single call and finish() gives the verdict.
class OptionReader {
 public:
  OptionReader(const char* tool, void (*usage)(), int argc, char** argv)
      : tool_(tool), usage_(usage), argc_(argc), argv_(argv) {}

  /// Advance to the next option; false once argv is exhausted or an
  /// option was rejected. --help / -h prints the usage and exits 0.
  bool next();
  const std::string& opt() const { return opt_; }

  /// The option's argument, or nullptr (rejecting the option) when argv
  /// ends first.
  const char* value();
  void text(std::string& out);
  /// A whole-string decimal (or 0x-prefixed hex) integer in [lo, hi].
  template <std::integral T>
  void count(T& out, u64 lo = 0,
             u64 hi = static_cast<u64>(std::numeric_limits<T>::max())) {
    u64 v = 0;
    if (parse_count(lo, hi, v)) out = static_cast<T>(v);
  }
  /// One of `names`.
  void choice(std::string& out, std::initializer_list<const char*> names);
  /// A whole-string real number in [0, 1].
  void rate(double& out);
  /// A whole-string finite real number > 0.
  void positive(double& out);
  /// True when the current option is followed by an argument that is not
  /// itself an option: lets an option take an optional value.
  bool has_value() const {
    return i_ + 1 < argc_ && argv_[i_ + 1][0] != '-';
  }
  /// Reject the current option: argument `v` is not `what`, or, with `v`
  /// null, the option is unknown.
  void reject(const char* v = nullptr, const std::string& what = {});

  /// Parse the current option if it is one of `a`'s; false if it is not.
  bool layer_option(LayerArgs& a);
  bool run_option(RunArgs& a);

  /// True if every option parsed; otherwise prints the usage.
  bool finish();
  /// As above, and `a`'s bits/variant pair must be valid (says why not).
  bool finish(const LayerArgs& a);

 private:
  bool parse_count(u64 lo, u64 hi, u64& out);
  /// Consume a whole-string real number that `valid` accepts (`what`
  /// describes it when rejected).
  void parse_real(const char* what, bool (*valid)(double), double& out);

  const char* tool_;
  void (*usage_)();
  int argc_;
  char** argv_;
  int i_ = 0;
  bool ok_ = true;
  std::string opt_;
};

/// Why a layer of `bits` cannot run variant `v` (empty when it can):
/// widths are 8, 4 or 2; 8b is 8-bit only, the sub-byte variants take 4 or
/// 2 bits, and the shuffle ablation 4 bits only.
std::string bits_variant_error(unsigned bits, kernels::ConvVariant v);

/// The layer the tools run: the paper's 16x16x32->64 layer at `bits`, or
/// with `small` a 6x6x16->8 layer for smoke tests.
qnn::ConvSpec layer_spec(unsigned bits, bool small);

/// One run of xprof or xtel: layer_spec's layer with the tools' fixed
/// synthetic data (seed 7; random() calibrates requant_shift, so kernels
/// are generated from data.spec), a registry, and a timeline when a trace
/// was requested. `body` returns the exit status; the trace and the
/// registry exports are written after it. A variant the core lacks exits
/// 2, a SimError 1.
using LayerBody = std::function<int(const kernels::ConvLayerData& data,
                                    obs::Registry& reg,
                                    obs::Timeline* timeline)>;
int run_layer_tool(const char* tool, const RunArgs& a,
                   const sim::CoreConfig& cfg, const LayerBody& body);

/// The single-core run checks of xprof and xtel: the output in `mem`
/// against the golden model and the counter invariants. Reports each
/// failure as `tool`; true if both hold.
bool check_layer_run(const char* tool, const kernels::ConvLayerData& data,
                     const kernels::ConvMemLayout& layout,
                     const mem::Memory& mem, const sim::PerfCounters& perf);

/// Write `body` to `path`, reporting the outcome as `tool`.
bool write_text_file(const char* tool, const std::string& path,
                     const std::string& body, const char* what);

}  // namespace xpulp::tools
