// Host-throughput benchmark of the interpreter itself: simulated MIPS
// (million instructions per host second) for the paper's convolution layer,
// comparing the legacy switch-on-mnemonic reference interpreter against the
// predecoded handler-table fast path and the superblock engine. All modes
// are cycle-identical by construction (see test_dispatch_diff); this bench
// quantifies the host speed each one gains. One row per dot format the
// superblock macro-op serves: the paper rows (8b, hwq 4-bit) and the
// sub-byte rows (hwq 2-bit, mixed 8x4 / 8x2 / 4x2), each with its fused
// and macro-op instruction shares.
//
// Emits BENCH_throughput.json (obs::Registry JSON) next to the binary's
// working directory.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "mem/memory.hpp"
#include "obs/registry.hpp"
#include "obs/sampler.hpp"
#include "sim/core.hpp"
#include "tool_cli.hpp"

using namespace xpulp;
using namespace xpulp::bench;
using kernels::ConvVariant;

namespace {

struct Workload {
  std::string platform;
  std::string variant;
  /// Row name: the variant, plus the operand format where one variant
  /// serves several rows (hwq 2-bit, mixed 8x4 / 8x2 / 4x2).
  std::string name;
  unsigned bits = 0;
  /// Paper rows (8b, hwq 4-bit) feed min_superblock_speedup and
  /// --min-speedup; the sub-byte rows (hwq 2-bit, mixed) feed
  /// min_subbyte_superblock_speedup and --min-subbyte-speedup.
  bool paper = true;
  kernels::ConvKernel kernel;
  mem::Memory pristine;  // loaded program + layer data, untouched by runs
  sim::CoreConfig cfg;
};

struct Measurement {
  u64 instructions = 0;
  double host_seconds = 0;
  double mips() const {
    return host_seconds > 0
               ? static_cast<double>(instructions) / host_seconds / 1e6
               : 0;
  }
};

/// The paper layer at `bits` under `v`; `w_bits` != 0 makes it a mixed
/// layer (8-bit outputs, as in bench_mixed_precision) with that weight
/// width.
Workload make_workload(unsigned bits, ConvVariant v, sim::CoreConfig cfg,
                       bool paper, unsigned w_bits = 0) {
  qnn::ConvSpec layer = qnn::ConvSpec::paper_layer(bits);
  std::string name = kernels::variant_name(v);
  if (w_bits != 0) {
    layer.w_bits = w_bits;
    layer.out_bits = 8;
    name += "-" + std::to_string(bits) + "x" + std::to_string(w_bits);
  } else if (!paper) {
    name += "-" + std::to_string(bits) + "b";
  }
  const auto data = kernels::ConvLayerData::random(layer, kSeed);
  const qnn::ConvSpec& spec = data.spec;  // requant_shift calibrated
  Workload w{cfg.name,
             kernels::variant_name(v),
             std::move(name),
             bits,
             paper,
             kernels::generate_conv_kernel(spec, v, 0x40000),
             mem::Memory{},
             std::move(cfg)};
  w.kernel.program.load(w.pristine);
  kernels::load_conv_data(data, w.kernel.layout, w.pristine);
  return w;
}

/// One timed repetition: restore memory from the pristine image, reset and
/// run the kernel to completion, accumulating host time and instructions.
void one_rep(const Workload& w, sim::Core& core, mem::Memory& mem,
             Measurement& m) {
  mem = w.pristine;
  core.reset(w.kernel.program.entry(),
             w.kernel.program.base() + w.kernel.program.size_bytes());
  core.reset_perf();
  const auto t0 = std::chrono::steady_clock::now();
  const sim::HaltReason r = core.run();
  const auto t1 = std::chrono::steady_clock::now();
  if (r != sim::HaltReason::kEcall) {
    std::fprintf(stderr, "kernel did not complete\n");
    std::exit(1);
  }
  m.host_seconds += std::chrono::duration<double>(t1 - t0).count();
  m.instructions += core.perf().instructions;
}

struct ModeResults {
  Measurement ref, fast, superblock;
  /// Superblock coverage from one clean repetition (Core::reset clears the
  /// engine stats, so a single rep reports exactly one kernel run).
  sim::SuperblockStats coverage;
  u64 coverage_instructions = 0;
};

/// Measure the three dispatch modes in alternating *rounds* and report each
/// mode's best round. Round-level interleaving keeps slow host-clock drift
/// (thermal, scheduler) from biasing the ratios, each round is long enough
/// that cross-mode cache/predictor pollution at the switch is amortized
/// away, and taking the best round discards downward scheduler noise
/// symmetrically for every mode. The first repetition of every round is a
/// warm-up and not counted.
ModeResults measure_modes(const Workload& w, double round_seconds = 0.25,
                          int rounds = 5) {
  ModeResults out;
  mem::Memory mem;
  sim::Core core(mem, w.cfg);

  for (int r = 0; r < rounds; ++r) {
    for (int mode = 0; mode < 3; ++mode) {
      core.set_reference_dispatch(mode == 0);
      core.set_superblock(mode == 2);
      Measurement warm;
      one_rep(w, core, mem, warm);
      Measurement round;
      while (round.host_seconds < round_seconds) one_rep(w, core, mem, round);
      Measurement& best =
          mode == 0 ? out.ref : mode == 1 ? out.fast : out.superblock;
      if (round.mips() > best.mips()) best = round;
    }
  }

  core.set_reference_dispatch(false);
  core.set_superblock(true);
  Measurement cov;
  one_rep(w, core, mem, cov);
  out.coverage = core.superblock_stats();
  out.coverage_instructions = cov.instructions;
  return out;
}

/// Observer cost guard: one detached and one attached configuration of the
/// same core, measured as round pairs — a detached and an attached round
/// back to back, the order alternating from pair to pair. The gate is the
/// median over the pairs of each pair's attached/detached MIPS ratio: host
/// noise that slows a whole pair cancels in its ratio, drift cancels over
/// the alternating order, and the median discards the pairs a burst of
/// noise split. A real observer cost slows every attached round, so it
/// moves every pair's ratio and the median with it. The attached observer
/// must also leave the simulated cost bit-identical: every PerfCounters
/// field of the last repetition of each configuration is compared.
struct GuardResult {
  /// Best round of each configuration (reported, not gated).
  Measurement detached, attached;
  std::vector<double> pair_ratios;
  bool perf_identical = false;
  /// Superblock coverage of the last repetition (Core::reset clears it).
  sim::SuperblockStats detached_sb, attached_sb;
  double ratio() const {
    if (pair_ratios.empty()) return 0;
    std::vector<double> r = pair_ratios;
    const auto mid = r.begin() + static_cast<std::ptrdiff_t>(r.size() / 2);
    std::nth_element(r.begin(), mid, r.end());
    return *mid;
  }
};

/// `attach(core)` attaches the observer and returns the function that
/// detaches it again. `pairs` is odd so the median is one pair's ratio.
template <typename Attach>
GuardResult measure_guard(const Workload& w, bool superblock, Attach attach,
                          double round_seconds = 0.2, int pairs = 9) {
  GuardResult out;
  mem::Memory mem;
  sim::Core core(mem, w.cfg);
  core.set_superblock(superblock);

  sim::PerfCounters detached_perf, attached_perf;
  for (int p = 0; p < pairs; ++p) {
    Measurement pair[2];  // [0] detached, [1] attached
    for (int k = 0; k < 2; ++k) {
      const int mode = (p + k) % 2;
      std::function<void()> detach;
      if (mode == 1) detach = attach(core);
      Measurement warm;
      one_rep(w, core, mem, warm);
      Measurement& round = pair[mode];
      while (round.host_seconds < round_seconds) one_rep(w, core, mem, round);
      (mode == 0 ? detached_perf : attached_perf) = core.perf();
      (mode == 0 ? out.detached_sb : out.attached_sb) =
          core.superblock_stats();
      Measurement& best = mode == 0 ? out.detached : out.attached;
      if (round.mips() > best.mips()) best = round;
      if (detach) detach();
    }
    out.pair_ratios.push_back(pair[0].mips() > 0
                                  ? pair[1].mips() / pair[0].mips()
                                  : 0);
  }
  out.perf_identical = detached_perf == attached_perf;
  return out;
}

/// Sampler idle-cost guard: an installed-but-idle obs::Sampler (interval
/// far beyond the run length, so it never fires mid-run) on the fast path.
GuardResult measure_sampler_guard(const Workload& w) {
  return measure_guard(w, /*superblock=*/false, [](sim::Core& core) {
    obs::Sampler::Options sopts;
    sopts.interval_cycles = cycles_t{1} << 62;  // never due mid-run
    auto sampler = std::make_shared<obs::Sampler>(core, sopts);
    return std::function<void()>([sampler] { sampler->finalize(); });
  });
}

/// Region-attribution cost guard: the core's in-loop region attribution
/// with the kernel's phase regions attached, the way run_conv_layer runs
/// every layer with quantization code.
GuardResult measure_attribution_guard(const Workload& w, bool superblock) {
  return measure_guard(w, superblock, [&w](sim::Core& core) {
    core.set_region_attribution(w.kernel.regions.build_index(),
                                w.kernel.regions.size());
    return std::function<void()>([&core] { core.clear_region_attribution(); });
  });
}

void usage() {
  std::fprintf(stderr,
               "usage: bench_sim_throughput [--min-speedup X] "
               "[--min-subbyte-speedup X] [--guard-sampler [R]] "
               "[--guard-attribution [R]]\n");
}

}  // namespace

int main(int argc, char** argv) {
  // --min-speedup X: exit nonzero when the superblock-over-reference
  // speedup of either paper row (8b, hwq 4-bit) falls below X (the CI
  // regression gate). --min-subbyte-speedup X: the same over the sub-byte
  // rows (hwq 2-bit, mixed 8x4 / 8x2 / 4x2), gated apart so their lower
  // speedups do not lower the paper rows' floor.
  // --guard-sampler [R]: also measure the idle-sampler cost and exit
  // nonzero when it retains less than R of the detached throughput
  // (default 0.98) or when the simulated cost changes at all.
  // --guard-attribution [R]: the same for the core's region attribution,
  // on both paper rows, on the fast path and with superblocks on; with
  // superblocks on, a fused-instruction gap against the detached run must
  // be explained by refused bursts (SuperblockStats::region_rejects).
  // A malformed or unknown argument is a usage error (exit 2), so a bad
  // floor can never pass as a gate of 0.
  double required_speedup = 0;
  double required_subbyte_speedup = 0;
  bool guard_sampler = false;
  double guard_ratio = 0.98;
  bool guard_attribution = false;
  double attribution_ratio = 0.98;
  tools::OptionReader r("bench_sim_throughput", usage, argc, argv);
  while (r.next()) {
    if (r.opt() == "--min-speedup") {
      r.positive(required_speedup);
    } else if (r.opt() == "--min-subbyte-speedup") {
      r.positive(required_subbyte_speedup);
    } else if (r.opt() == "--guard-sampler") {
      guard_sampler = true;
      if (r.has_value()) r.rate(guard_ratio);
    } else if (r.opt() == "--guard-attribution") {
      guard_attribution = true;
      if (r.has_value()) r.rate(attribution_ratio);
    } else {
      r.reject();
    }
  }
  if (!r.finish()) return 2;

  std::printf("interpreter host throughput -- paper conv layer\n");
  std::printf("%-28s %10s %10s %10s %10s %7s %7s %7s %7s\n", "workload",
              "minstr", "ref MIPS", "fast MIPS", "sb MIPS", "fast x", "sb x",
              "fused", "macro");

  const sim::CoreConfig ext = sim::CoreConfig::extended();
  std::vector<Workload> workloads;
  workloads.push_back(make_workload(8, ConvVariant::kXpulpV2_8b,
                                    sim::CoreConfig::ri5cy(), true));
  workloads.push_back(make_workload(4, ConvVariant::kXpulpNN_HwQ, ext, true));
  workloads.push_back(make_workload(2, ConvVariant::kXpulpNN_HwQ, ext, false));
  workloads.push_back(
      make_workload(8, ConvVariant::kXpulpNN_Mixed, ext, false, 4));
  workloads.push_back(
      make_workload(8, ConvVariant::kXpulpNN_Mixed, ext, false, 2));
  workloads.push_back(
      make_workload(4, ConvVariant::kXpulpNN_Mixed, ext, false, 2));

  obs::Registry reg;
  reg.text("bench", "sim_throughput");
  reg.text("unit", "host MIPS");
  double min_fast_speedup = 1e30;
  double min_sb_speedup = 1e30;
  double min_subbyte_sb_speedup = 1e30;

  const auto add_measurement = [&reg](const std::string& prefix,
                                      const Measurement& m) {
    reg.counter(prefix + ".instructions", m.instructions);
    reg.gauge(prefix + ".host_seconds", m.host_seconds);
    reg.gauge(prefix + ".mips", m.mips());
  };

  for (const Workload& w : workloads) {
    const ModeResults r = measure_modes(w);
    const double fast_speedup = r.fast.mips() / r.ref.mips();
    const double sb_speedup = r.superblock.mips() / r.ref.mips();
    if (w.paper) {
      min_fast_speedup = std::min(min_fast_speedup, fast_speedup);
      min_sb_speedup = std::min(min_sb_speedup, sb_speedup);
    } else {
      min_subbyte_sb_speedup = std::min(min_subbyte_sb_speedup, sb_speedup);
    }
    const auto share = [&r](u64 instructions) {
      return r.coverage_instructions != 0
                 ? static_cast<double>(instructions) /
                       static_cast<double>(r.coverage_instructions)
                 : 0;
    };
    const double fused = share(r.coverage.fused_instructions);
    const double macro =
        share(r.coverage.macro_iterations *
              sim::SuperblockStats::kMacroIterationOps);

    const std::string name = w.platform + "/" + w.name;
    std::printf(
        "%-28s %10.2f %10.2f %10.2f %10.2f %6.2fx %6.2fx %6.1f%% %6.1f%%\n",
        name.c_str(), static_cast<double>(r.ref.instructions) / 1e6,
        r.ref.mips(), r.fast.mips(), r.superblock.mips(), fast_speedup,
        sb_speedup, 100 * fused, 100 * macro);

    const std::string key = "workloads." + w.platform + "_" + w.name;
    reg.text(key + ".platform", w.platform);
    reg.text(key + ".variant", w.variant);
    reg.counter(key + ".bits", w.bits);
    add_measurement(key + ".reference", r.ref);
    add_measurement(key + ".fast", r.fast);
    add_measurement(key + ".superblock", r.superblock);
    obs::add_superblock_stats(reg, key + ".superblock.coverage", r.coverage,
                              r.coverage_instructions);
    reg.gauge(key + ".speedup", fast_speedup);
    reg.gauge(key + ".superblock_speedup", sb_speedup);
  }
  reg.gauge("min_speedup", min_fast_speedup);
  reg.gauge("min_superblock_speedup", min_sb_speedup);
  reg.gauge("min_subbyte_superblock_speedup", min_subbyte_sb_speedup);

  bool guard_ok = true;
  if (guard_sampler) {
    // Guard on the extended-core paper row (the hot configuration).
    const GuardResult g = measure_sampler_guard(workloads[1]);
    std::printf("idle-sampler guard: detached %.2f MIPS, idle %.2f MIPS "
                "(median pair %.1f%% retained, counters %s)\n",
                g.detached.mips(), g.attached.mips(), 100 * g.ratio(),
                g.perf_identical ? "identical" : "DIVERGED");
    reg.gauge("guard.sampler.detached_mips", g.detached.mips());
    reg.gauge("guard.sampler.idle_mips", g.attached.mips());
    reg.gauge("guard.sampler.retained", g.ratio());
    reg.flag("guard.sampler.cycles_identical", g.perf_identical);
    if (!g.perf_identical) {
      std::fprintf(stderr,
                   "FAIL: attaching an idle sampler changed simulated cost\n");
      guard_ok = false;
    }
    if (g.ratio() < guard_ratio) {
      std::fprintf(stderr,
                   "FAIL: idle sampler retains %.1f%% of detached throughput "
                   "(< %.1f%%)\n",
                   100 * g.ratio(), 100 * guard_ratio);
      guard_ok = false;
    }
  }

  if (guard_attribution) {
    std::printf("region-attribution guard:\n");
    for (const Workload& w : workloads) {
      if (!w.paper) continue;
      for (const bool sb : {false, true}) {
        const GuardResult g = measure_attribution_guard(w, sb);
        const std::string mode = sb ? "superblock" : "fast";
        const std::string name = w.platform + "/" + w.variant + " " + mode;
        const u64 fused_detached = g.detached_sb.fused_instructions;
        const u64 fused_attached = g.attached_sb.fused_instructions;
        const u64 rejects = g.attached_sb.region_rejects;
        std::printf("  %-32s detached %8.2f MIPS, attached %8.2f MIPS "
                    "(median pair %.1f%% retained, counters %s); fused "
                    "%llu vs %llu, region rejects %llu\n",
                    name.c_str(), g.detached.mips(), g.attached.mips(),
                    100 * g.ratio(),
                    g.perf_identical ? "identical" : "DIVERGED",
                    static_cast<unsigned long long>(fused_detached),
                    static_cast<unsigned long long>(fused_attached),
                    static_cast<unsigned long long>(rejects));
        const std::string key = "guard.attribution." + w.platform + "_" +
                                w.variant + "." + mode;
        reg.gauge(key + ".detached_mips", g.detached.mips());
        reg.gauge(key + ".attached_mips", g.attached.mips());
        reg.gauge(key + ".retained", g.ratio());
        reg.flag(key + ".perf_identical", g.perf_identical);
        reg.counter(key + ".fused_instructions.detached", fused_detached);
        reg.counter(key + ".fused_instructions.attached", fused_attached);
        reg.counter(key + ".region_rejects", rejects);
        if (!g.perf_identical) {
          std::fprintf(stderr,
                       "FAIL: %s: region attribution changed simulated "
                       "cost\n",
                       name.c_str());
          guard_ok = false;
        }
        if (g.ratio() < attribution_ratio) {
          std::fprintf(stderr,
                       "FAIL: %s: region attribution retains %.1f%% of "
                       "detached throughput (< %.1f%%)\n",
                       name.c_str(), 100 * g.ratio(),
                       100 * attribution_ratio);
          guard_ok = false;
        }
        if ((fused_attached != fused_detached) != (rejects != 0)) {
          // A fused-coverage gap nothing counted is a silent fallback.
          std::fprintf(stderr,
                       "FAIL: %s: fused instructions %llu attached vs %llu "
                       "detached with %llu region rejects\n",
                       name.c_str(),
                       static_cast<unsigned long long>(fused_attached),
                       static_cast<unsigned long long>(fused_detached),
                       static_cast<unsigned long long>(rejects));
          guard_ok = false;
        }
      }
    }
  }

  if (!save_bench_json(reg, "BENCH_throughput.json")) return 1;
  std::printf("min speedup: fast %.2fx, superblock %.2fx (sub-byte rows "
              "%.2fx)\n",
              min_fast_speedup, min_sb_speedup, min_subbyte_sb_speedup);
  if (required_speedup > 0 && min_sb_speedup < required_speedup) {
    std::fprintf(stderr,
                 "FAIL: superblock speedup %.2fx below required %.2fx\n",
                 min_sb_speedup, required_speedup);
    return 1;
  }
  if (required_subbyte_speedup > 0 &&
      min_subbyte_sb_speedup < required_subbyte_speedup) {
    std::fprintf(stderr,
                 "FAIL: sub-byte superblock speedup %.2fx below required "
                 "%.2fx\n",
                 min_subbyte_sb_speedup, required_subbyte_speedup);
    return 1;
  }
  return guard_ok ? 0 : 1;
}
