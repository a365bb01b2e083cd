// Oracle differential for the core's in-loop region attribution
// (sim::Core::set_region_attribution): on every kernel of the static
// verification sweep, the per-region totals the dispatch loops bank must
// equal obs::Profiler's traced region_stats() bit for bit — instructions,
// cycles and every stall cause — on the reference, fast and superblock
// dispatch paths, with a Sampler forcing burst repairs, and when the run
// is cut into run_steps()/run_burst() chunks.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "analysis/kernel_sweep.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/profiler.hpp"
#include "obs/sampler.hpp"
#include "xasm/assembler.hpp"

namespace xpulp {
namespace {

enum class Mode { kReference, kFast, kSuperblock };

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kReference: return "reference";
    case Mode::kFast: return "fast";
    case Mode::kSuperblock: return "superblock";
  }
  return "?";
}

/// How the run is driven to its ecall.
enum class Drive { kRun, kSteps, kBurst };

struct Case {
  analysis::SweepKernel kernel;
  mem::Memory image;
  sim::CoreConfig cfg;
  /// Alternating two-name map over the whole image at a 6-byte grain:
  /// nearly every superblock plan straddles a boundary.
  obs::RegionMap fine;
};

/// The kernel image over deterministic pseudo-random data, so loads,
/// thresholds and branch outcomes are not all-zero.
mem::Memory image_of(const xasm::Program& prog, u64 seed) {
  mem::Memory m;
  std::vector<u8> bytes(m.size());
  Rng rng(seed);
  for (u8& b : bytes) b = static_cast<u8>(rng.uniform(0, 255));
  m.write_block(0, bytes);
  prog.load(m);
  return m;
}

const std::vector<Case>& cases() {
  static const std::vector<Case> all = [] {
    std::vector<Case> out;
    u64 seed = 1;
    for (analysis::SweepKernel& k : analysis::paper_kernels()) {
      sim::CoreConfig cfg = sim::CoreConfig::extended();
      cfg.xpulpv2 = k.options.xpulpv2;
      cfg.xpulpnn = k.options.xpulpnn;
      cfg.hwloops = k.options.hwloops;
      mem::Memory image = image_of(k.program, seed++);
      obs::RegionMap fine;
      const addr_t end = k.program.base() + k.program.size_bytes();
      for (addr_t a = 0; a < end; a += 6) {
        fine.add_range((a / 6) % 2 ? "odd" : "even", a, a + 6);
      }
      out.push_back(
          {std::move(k), std::move(image), std::move(cfg), std::move(fine)});
    }
    return out;
  }();
  return all;
}

struct Outcome {
  sim::PerfCounters perf;
  sim::SuperblockStats sb;
  std::vector<obs::RegionStat> regions;
  u64 samples = 0;
};

sim::Core make_core(mem::Memory& mem, const Case& c, Mode mode) {
  sim::CoreConfig cfg = c.cfg;
  cfg.reference_dispatch = mode == Mode::kReference;
  cfg.superblock = mode == Mode::kSuperblock;
  return sim::Core(mem, cfg);
}

void reset(sim::Core& core, const Case& c) {
  const xasm::Program& p = c.kernel.program;
  core.reset(p.entry(), p.base() + p.size_bytes());
}

void drive(sim::Core& core, Drive d) {
  switch (d) {
    case Drive::kRun:
      core.run(50'000'000);
      break;
    case Drive::kSteps:
      // Odd chunk sizes land the pauses at arbitrary boundaries, inside
      // fused bursts and region runs alike.
      while (!core.halted()) core.run_steps(997);
      break;
    case Drive::kBurst:
      while (!core.halted()) {
        core.run_burst(core.perf().cycles + 1231, 50'000'000);
      }
      break;
  }
  ASSERT_EQ(core.halt_reason(), sim::HaltReason::kEcall);
}

/// The traced oracle: obs::Profiler on the reference interpreter.
Outcome profile(const Case& c, const obs::RegionMap& regions) {
  mem::Memory mem = c.image;
  sim::Core core = make_core(mem, c, Mode::kReference);
  reset(core, c);
  obs::Profiler::Options popts;
  popts.track_pc = false;
  obs::Profiler prof(core, regions, popts);
  drive(core, Drive::kRun);
  prof.finalize();
  return {core.perf(), core.superblock_stats(), prof.region_stats(), 0};
}

/// The same run with only the core's region attribution attached (plus an
/// optional sampler firing every `sample_interval` cycles).
Outcome attribute(const Case& c, const obs::RegionMap& regions, Mode mode,
                  Drive d = Drive::kRun, cycles_t sample_interval = 0) {
  mem::Memory mem = c.image;
  sim::Core core = make_core(mem, c, mode);
  reset(core, c);
  core.set_region_attribution(regions.build_index(), regions.size());
  std::unique_ptr<obs::Sampler> sampler;
  if (sample_interval != 0) {
    obs::Sampler::Options sopts;
    sopts.interval_cycles = sample_interval;
    sampler = std::make_unique<obs::Sampler>(core, sopts);
  }
  drive(core, d);
  Outcome o{core.perf(), core.superblock_stats(),
            obs::attributed_region_stats(core, regions), 0};
  if (sampler) {
    sampler->finalize();
    o.samples = sampler->recorded();
  }
  return o;
}

void expect_same_regions(const Outcome& oracle, const Outcome& got,
                         const std::string& what) {
  EXPECT_TRUE(oracle.perf == got.perf) << what << ": PerfCounters differ";
  ASSERT_EQ(oracle.regions.size(), got.regions.size()) << what;
  for (size_t i = 0; i < oracle.regions.size(); ++i) {
    const obs::RegionStat& a = oracle.regions[i];
    const obs::RegionStat& b = got.regions[i];
    EXPECT_EQ(a.name, b.name) << what;
    EXPECT_TRUE(a.stat == b.stat)
        << what << " region " << a.name << ": " << b.stat.cycles
        << " cycles attributed, " << a.stat.cycles << " profiled";
  }
}

class RegionAttribution : public ::testing::TestWithParam<size_t> {
 protected:
  const Case& kase() const { return cases()[GetParam()]; }
};

TEST_P(RegionAttribution, MatchesProfilerOnEveryDispatchMode) {
  const Case& c = kase();
  const Outcome oracle = profile(c, c.kernel.regions);
  for (const Mode m : {Mode::kReference, Mode::kFast, Mode::kSuperblock}) {
    const Outcome got = attribute(c, c.kernel.regions, m);
    expect_same_regions(oracle, got, mode_name(m));
    // The kernel's own phase regions never split a superblock plan: the
    // engine stays exactly as hot as without attribution.
    EXPECT_EQ(got.sb.region_rejects, 0u) << mode_name(m);
  }
}

TEST_P(RegionAttribution, MatchesProfilerWhenPlansStraddleRegions) {
  const Case& c = kase();
  const Outcome oracle = profile(c, c.fine);
  for (const Mode m : {Mode::kFast, Mode::kSuperblock}) {
    expect_same_regions(oracle, attribute(c, c.fine, m), mode_name(m));
  }
}

TEST_P(RegionAttribution, MatchesProfilerWithSamplerAttached) {
  const Case& c = kase();
  const Outcome oracle = profile(c, c.kernel.regions);
  for (const Mode m : {Mode::kReference, Mode::kFast, Mode::kSuperblock}) {
    const Outcome got =
        attribute(c, c.kernel.regions, m, Drive::kRun, /*interval=*/997);
    expect_same_regions(oracle, got, std::string(mode_name(m)) + "+sampler");
    EXPECT_GT(got.samples, 0u);
  }
}

TEST_P(RegionAttribution, ChunkedRunsMatchOneRun) {
  const Case& c = kase();
  const Outcome oracle = profile(c, c.kernel.regions);
  for (const Mode m : {Mode::kReference, Mode::kFast, Mode::kSuperblock}) {
    expect_same_regions(oracle,
                        attribute(c, c.kernel.regions, m, Drive::kSteps),
                        std::string(mode_name(m)) + " run_steps");
    expect_same_regions(oracle,
                        attribute(c, c.kernel.regions, m, Drive::kBurst),
                        std::string(mode_name(m)) + " run_burst");
  }
}

std::string case_name(const ::testing::TestParamInfo<size_t>& info) {
  std::string n = cases()[info.param].kernel.name;
  for (char& ch : n) {
    if (ch == '/') ch = '_';
  }
  return n;
}

INSTANTIATE_TEST_SUITE_P(KernelSweep, RegionAttribution,
                         ::testing::Range<size_t>(0, cases().size()),
                         case_name);

/// The paper layer exercises the paths the per-kernel checks above could
/// leave cold on small kernels: fused bursts repaired at sampling
/// deadlines and cluster-style horizons, and refused straddling plans.
const Case& paper_layer() {
  for (const Case& c : cases()) {
    if (c.kernel.name == "conv/xpulpnn_hwq/paper_layer_4b") return c;
  }
  throw SimError("paper layer missing from the kernel sweep");
}

TEST(RegionAttributionPaths, SuperblockRepairsAndRefusalsAreExercised) {
  const Case& c = paper_layer();
  const Outcome plain = attribute(c, c.kernel.regions, Mode::kSuperblock);
  EXPECT_GT(plain.sb.fused_instructions, plain.perf.instructions / 2);

  const Outcome sampled = attribute(c, c.kernel.regions, Mode::kSuperblock,
                                    Drive::kRun, /*interval=*/997);
  EXPECT_GT(sampled.sb.sample_flushes, 0u);

  const Outcome burst =
      attribute(c, c.kernel.regions, Mode::kSuperblock, Drive::kBurst);
  EXPECT_GT(burst.sb.burst_flushes, 0u);

  const Outcome fine = attribute(c, c.fine, Mode::kSuperblock);
  EXPECT_GT(fine.sb.region_rejects, 0u);
  EXPECT_LT(fine.sb.fused_instructions, plain.sb.fused_instructions);
}

TEST(RegionAttributionPaths, AttachedCoreRunsTheSameFusedBursts) {
  // No silent fallback: with the kernel's own regions attached, the
  // superblock engine fuses exactly what it fuses detached.
  const Case& c = paper_layer();
  mem::Memory mem = c.image;
  sim::Core core = make_core(mem, c, Mode::kSuperblock);
  reset(core, c);
  drive(core, Drive::kRun);
  const sim::SuperblockStats detached = core.superblock_stats();
  const Outcome attached = attribute(c, c.kernel.regions, Mode::kSuperblock);
  EXPECT_TRUE(core.perf() == attached.perf);
  EXPECT_EQ(detached.fused_instructions, attached.sb.fused_instructions);
  EXPECT_EQ(detached.entries, attached.sb.entries);
  EXPECT_EQ(attached.sb.region_rejects, 0u);
}

// ------------------------------------------------------------- API contract

namespace r = xasm::reg;

TEST(RegionAttributionApi, AttachDetachAndTotalsAcrossPerfReset) {
  mem::Memory mem(64 * 1024);
  xasm::Assembler a(0);
  a.li(r::a0, 50);
  const auto top = a.here();
  a.addi(r::a0, r::a0, -1);
  a.bne(r::a0, r::zero, top);
  a.ecall();
  const auto prog = a.finish();
  prog.load(mem);

  sim::Core core(mem);
  EXPECT_FALSE(core.has_region_attribution());
  EXPECT_TRUE(core.region_attribution().empty());

  // One region covering the first instruction only; the loop and the
  // ecall fall into "other" (index 1).
  std::vector<int> index(2, -1);
  index[0] = index[1] = 0;
  core.set_region_attribution(index, 1);
  EXPECT_TRUE(core.has_region_attribution());
  core.reset(0);
  core.run();
  auto totals = core.region_attribution();
  ASSERT_EQ(totals.size(), 2u);
  EXPECT_EQ(totals[0].instructions, 1u);
  EXPECT_EQ(totals[0].instructions + totals[1].instructions,
            core.perf().instructions);
  EXPECT_EQ(totals[0].cycles + totals[1].cycles, core.perf().cycles);
  EXPECT_EQ(totals[1].branch, core.perf().branch_stall_cycles);

  // reset_perf() rebases the next delta but keeps the totals.
  const sim::RegionCounters first_other = totals[1];
  core.reset_perf();
  EXPECT_TRUE(core.region_attribution() == totals);
  core.reset(0);
  core.run();
  totals = core.region_attribution();
  EXPECT_EQ(totals[1].instructions, 2 * first_other.instructions);
  EXPECT_EQ(totals[1].cycles, 2 * first_other.cycles);

  // Reattaching restarts the totals; an empty table leaves one bucket.
  core.set_region_attribution(index, 1);
  EXPECT_EQ(core.region_attribution()[1].instructions, 0u);
  core.set_region_attribution({}, 0);
  ASSERT_EQ(core.region_attribution().size(), 1u);
  const cycles_t before = core.perf().cycles;
  core.reset(0);
  core.run();
  EXPECT_EQ(core.region_attribution()[0].cycles, core.perf().cycles - before);
  core.clear_region_attribution();
  EXPECT_FALSE(core.has_region_attribution());
  EXPECT_TRUE(core.region_attribution().empty());
}

TEST(RegionAttributionApi, RejectsRegionIdsPastTheCount) {
  mem::Memory mem(4096);
  sim::Core core(mem);
  EXPECT_THROW(core.set_region_attribution({0, 1, 2}, 2), SimError);
  EXPECT_THROW(core.set_region_attribution({0}, -1), SimError);
  EXPECT_FALSE(core.has_region_attribution());
}

}  // namespace
}  // namespace xpulp
