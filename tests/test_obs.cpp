// obs subsystem: RegionMap precedence and indexing, the metrics Registry's
// JSON/CSV exporters, and the cycle-attribution Profiler's reconciliation
// guarantee (attributed cycles partition the core's cycle counter).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "kernels/conv_layer.hpp"
#include "obs/delta.hpp"
#include "obs/profiler.hpp"
#include "obs/region.hpp"
#include "obs/registry.hpp"
#include "xasm/assembler.hpp"

namespace xpulp::obs {
namespace {

namespace r = xasm::reg;
using kernels::ConvVariant;

// ---------------------------------------------------------------- RegionMap

TEST(RegionMap, LookupAndCreationOrderPrecedence) {
  RegionMap m;
  m.add_range("outer", 0x00, 0x40);
  m.add_range("inner", 0x10, 0x20);  // created later: wins on overlap

  EXPECT_EQ(m.size(), 2);
  EXPECT_EQ(m.name(0), "outer");
  EXPECT_EQ(m.lookup(0x00), 0);
  EXPECT_EQ(m.lookup(0x10), 1);
  EXPECT_EQ(m.lookup(0x1e), 1);
  EXPECT_EQ(m.lookup(0x20), 0);  // [lo, hi) is half-open
  EXPECT_EQ(m.lookup(0x3e), 0);
  EXPECT_EQ(m.lookup(0x40), RegionMap::kNone);
  EXPECT_EQ(m.end_addr(), 0x40u);
}

TEST(RegionMap, IndexMatchesLookupEverywhere) {
  RegionMap m;
  m.add_range("a", 0x04, 0x30);
  m.add_range("b", 0x10, 0x18);
  m.add_range("a", 0x40, 0x50);  // second disjoint range, same region
  const auto idx = m.build_index();
  ASSERT_EQ(idx.size(), (m.end_addr() + 1) >> 1);
  for (addr_t pc = 0; pc < m.end_addr(); pc += 2) {
    EXPECT_EQ(idx[pc >> 1], m.lookup(pc)) << "pc 0x" << std::hex << pc;
  }
}

TEST(RegionMap, EmptyAndDegenerateRanges) {
  RegionMap m;
  EXPECT_EQ(m.end_addr(), 0u);
  EXPECT_EQ(m.lookup(0), RegionMap::kNone);
  EXPECT_TRUE(m.build_index().empty());

  m.add_range("empty", 0x10, 0x10);  // hi <= lo: dropped entirely
  EXPECT_EQ(m.size(), 0);
  EXPECT_EQ(m.lookup(0x10), RegionMap::kNone);

  const int id = m.region("declared");  // region() does create, rangeless
  EXPECT_EQ(m.size(), 1);
  EXPECT_TRUE(m.ranges(id).empty());
}

// ----------------------------------------------------------------- Registry

TEST(Registry, JsonNestsAlongDots) {
  Registry reg;
  reg.counter("a.b.count", 3);
  reg.gauge("a.b.rate", 0.5);
  reg.text("a.name", "conv");
  reg.flag("ok", true);

  std::istringstream is(reg.json());
  std::string json = reg.json();
  EXPECT_NE(json.find("\"a\": {"), std::string::npos);
  EXPECT_NE(json.find("\"b\": {"), std::string::npos);
  EXPECT_NE(json.find("\"count\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"rate\": 0.5"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"conv\""), std::string::npos);
  EXPECT_NE(json.find("\"ok\": true"), std::string::npos);
}

TEST(Registry, SuperblockStatsPublishAndDiffEveryField) {
  // Every SuperblockStats field is a u64 counter: fill them with distinct
  // nonzero values through the raw layout, so a field added later is
  // covered without touching this test.
  static_assert(std::is_trivially_copyable_v<sim::SuperblockStats>);
  static_assert(sizeof(sim::SuperblockStats) % sizeof(u64) == 0);
  constexpr size_t kFields = sizeof(sim::SuperblockStats) / sizeof(u64);
  std::array<u64, kFields> values{};
  for (size_t i = 0; i < kFields; ++i) values[i] = 100 + i;
  sim::SuperblockStats s;
  std::memcpy(static_cast<void*>(&s), values.data(), sizeof s);

  // A window diff against zero is the value itself: diff() skips no field.
  EXPECT_EQ(diff(s, sim::SuperblockStats{}), s);

  // One counter per field, carrying every field's value exactly once (no
  // fraction gauges without an instruction total).
  Registry reg;
  add_superblock_stats(reg, "sb", s, /*total_instructions=*/0);
  EXPECT_EQ(reg.size(), kFields);
  std::istringstream csv(reg.csv());
  std::string row;
  std::getline(csv, row);  // header
  std::vector<u64> published;
  while (std::getline(csv, row)) {
    published.push_back(std::stoull(row.substr(row.find(',') + 1)));
  }
  std::sort(published.begin(), published.end());
  EXPECT_EQ(published, std::vector<u64>(values.begin(), values.end()));
}

TEST(Registry, OverwriteAndContains) {
  Registry reg;
  reg.counter("x", 1);
  reg.counter("x", 2);
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_TRUE(reg.contains("x"));
  EXPECT_FALSE(reg.contains("y"));
  EXPECT_NE(reg.json().find("\"x\": 2"), std::string::npos);
}

TEST(Registry, CsvQuotesStrings) {
  Registry reg;
  reg.text("name", "say \"hi\"");
  reg.counter("n", 7);
  const std::string csv = reg.csv();
  EXPECT_NE(csv.find("metric,value"), std::string::npos);
  EXPECT_NE(csv.find("name,\"say \"\"hi\"\"\""), std::string::npos);
  EXPECT_NE(csv.find("n,7"), std::string::npos);
}

TEST(Registry, LeafObjectConflictThrows) {
  Registry reg;
  reg.counter("a.b", 1);
  reg.counter("a.b.c", 2);  // "a.b" is both a leaf and an object
  EXPECT_THROW(reg.json(), SimError);
}

TEST(Registry, EmptyRegistryStillExports) {
  Registry reg;
  EXPECT_EQ(reg.size(), 0u);
  const std::string json = reg.json();
  // Even an empty registry carries the schema version.
  EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '\n');
  const std::string csv = reg.csv();
  EXPECT_EQ(csv, "metric,value\n");  // header only
}

TEST(Registry, SchemaVersionInjectedOnceAndNotDuplicated) {
  Registry reg;
  reg.counter("x", 1);
  const std::string json = reg.json();
  EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
  // First key in the object, so parsers can sniff it cheaply.
  EXPECT_LT(json.find("schema_version"), json.find("\"x\""));

  // A metric that claims the path wins; no duplicate key is emitted.
  Registry reg2;
  reg2.counter("schema_version", 42);
  const std::string json2 = reg2.json();
  EXPECT_NE(json2.find("\"schema_version\": 42"), std::string::npos);
  EXPECT_EQ(json2.find("\"schema_version\": 1"), std::string::npos);
}

TEST(Registry, CsvQuotesPathsWithCommasQuotesAndNewlines) {
  Registry reg;
  reg.counter("a,b", 1);        // comma in the path
  reg.counter("with\"quote", 2);
  reg.counter("multi\nline", 3);
  reg.text("plain", "v");
  const std::string csv = reg.csv();
  EXPECT_NE(csv.find("\"a,b\",1"), std::string::npos);
  EXPECT_NE(csv.find("\"with\"\"quote\",2"), std::string::npos);
  EXPECT_NE(csv.find("\"multi\nline\",3"), std::string::npos);
  EXPECT_NE(csv.find("plain,v"), std::string::npos);
  // The unquoted rows still have exactly two columns.
  EXPECT_EQ(csv.find("plain,\"v\""), std::string::npos);
}

TEST(Registry, NonFiniteDoublesSerializeAsQuotedStrings) {
  Registry reg;
  reg.gauge("nan", std::nan(""));
  reg.gauge("pinf", std::numeric_limits<double>::infinity());
  reg.gauge("ninf", -std::numeric_limits<double>::infinity());
  reg.gauge("fine", 1.5);
  const std::string json = reg.json();
  // JSON has no literals for these; they must not leak as bare tokens.
  EXPECT_NE(json.find("\"nan\": \"NaN\""), std::string::npos);
  EXPECT_NE(json.find("\"pinf\": \"Infinity\""), std::string::npos);
  EXPECT_NE(json.find("\"ninf\": \"-Infinity\""), std::string::npos);
  EXPECT_EQ(json.find("inf,"), std::string::npos);
  EXPECT_EQ(json.find(": nan"), std::string::npos);

  const std::string csv = reg.csv();
  EXPECT_NE(csv.find("nan,NaN"), std::string::npos);
  EXPECT_NE(csv.find("pinf,Infinity"), std::string::npos);
  EXPECT_NE(csv.find("ninf,-Infinity"), std::string::npos);
}

// ----------------------------------------------------------------- Profiler

TEST(Profiler, AttributesHandWrittenRegions) {
  mem::Memory mem(64 * 1024);
  xasm::Assembler a(0);
  RegionMap regions;

  const addr_t warm_lo = a.current_addr();
  a.li(r::a0, 100);
  a.li(r::a1, 0);
  regions.add_range("warm", warm_lo, a.current_addr());

  const addr_t loop_lo = a.current_addr();
  const auto loop_top = a.here();
  a.addi(r::a1, r::a1, 1);
  a.addi(r::a0, r::a0, -1);
  a.bne(r::a0, r::zero, loop_top);
  regions.add_range("loop", loop_lo, a.current_addr());

  a.ecall();  // outside every region: lands in "other"
  auto prog = a.finish();
  prog.load(mem);

  sim::Core core(mem);
  core.reset(0);
  Profiler prof(core, regions);
  core.run();
  prof.finalize();

  const auto& perf = core.perf();
  EXPECT_EQ(prof.total().cycles, perf.cycles);
  EXPECT_EQ(prof.total().instructions, perf.instructions);

  const auto stats = prof.region_stats();
  ASSERT_EQ(stats.size(), 3u);  // warm, loop, other
  EXPECT_EQ(stats[0].name, "warm");
  EXPECT_EQ(stats[1].name, "loop");
  EXPECT_EQ(stats[2].name, "other");
  EXPECT_EQ(stats[0].stat.instructions, 2u);
  EXPECT_EQ(stats[1].stat.instructions, 300u);  // 3 instrs x 100 iterations
  EXPECT_EQ(stats[2].stat.instructions, 1u);    // the ecall
  // The loop's taken branches carry all the branch stall cycles.
  EXPECT_EQ(stats[1].stat.stalls.branch, perf.branch_stall_cycles);

  u64 sum = 0;
  for (const auto& s : stats) sum += s.stat.cycles;
  EXPECT_EQ(sum, perf.cycles);
}

TEST(Profiler, ReconcilesOnConvKernelBothDispatchPaths) {
  qnn::ConvSpec s;
  s.in_h = s.in_w = 6;
  s.in_c = 16;
  s.out_c = 8;
  s.in_bits = s.w_bits = s.out_bits = 4;
  const auto data = kernels::ConvLayerData::random(s, 7);

  for (const bool reference : {false, true}) {
    auto cfg = sim::CoreConfig::extended();
    cfg.reference_dispatch = reference;
    kernels::ConvKernel kernel =
        kernels::generate_conv_kernel(s, ConvVariant::kXpulpNN_HwQ, 0x40000);

    mem::Memory mem;
    kernel.program.load(mem);
    kernels::load_conv_data(data, kernel.layout, mem);
    sim::Core core(mem, cfg);
    core.reset(kernel.program.entry(),
               kernel.program.base() + kernel.program.size_bytes());

    Profiler prof(core, kernel.regions);
    ASSERT_EQ(core.run(), sim::HaltReason::kEcall);
    prof.finalize();

    EXPECT_EQ(prof.total().cycles, core.perf().cycles);
    u64 sum = 0, quant = 0;
    for (const auto& rs : prof.region_stats()) {
      sum += rs.stat.cycles;
      if (rs.name == "quant") quant = rs.stat.cycles;
    }
    EXPECT_EQ(sum, core.perf().cycles);

    // Cross-check against run_conv_layer's quant attribution (which uses
    // its own Profiler internally): the same workload must agree.
    const auto res = kernels::run_conv_layer(data, ConvVariant::kXpulpNN_HwQ,
                                             cfg);
    EXPECT_EQ(quant, res.quant_cycles);
    EXPECT_GT(quant, 0u);
  }
}

TEST(Profiler, MnemonicAndHotspotTablesPartitionCycles) {
  qnn::ConvSpec s;
  s.in_h = s.in_w = 4;
  s.in_c = 8;
  s.out_c = 4;
  s.in_bits = s.w_bits = s.out_bits = 4;
  const auto data = kernels::ConvLayerData::random(s, 7);
  kernels::ConvKernel kernel =
      kernels::generate_conv_kernel(s, ConvVariant::kXpulpNN_HwQ, 0x40000);

  mem::Memory mem;
  kernel.program.load(mem);
  kernels::load_conv_data(data, kernel.layout, mem);
  sim::Core core(mem);
  core.reset(kernel.program.entry(),
             kernel.program.base() + kernel.program.size_bytes());
  Profiler prof(core, kernel.regions);
  ASSERT_EQ(core.run(), sim::HaltReason::kEcall);
  prof.finalize();

  u64 by_op = 0;
  for (const auto& st : prof.by_mnemonic()) by_op += st.cycles;
  EXPECT_EQ(by_op, prof.total().cycles);

  u64 by_cls = 0;
  for (const auto& st : prof.by_class()) by_cls += st.cycles;
  EXPECT_EQ(by_cls, prof.total().cycles);

  // Every pc's cycles sum to the total too (hotspots with a huge n returns
  // every tracked pc).
  const auto spots = prof.hotspots(1u << 20);
  u64 by_pc = 0;
  for (const auto& h : spots) by_pc += h.stat.cycles;
  EXPECT_EQ(by_pc, prof.total().cycles);
  // Descending order.
  for (size_t i = 1; i < spots.size(); ++i) {
    EXPECT_GE(spots[i - 1].stat.cycles, spots[i].stat.cycles);
  }
}

TEST(Profiler, CollapsedStacksSumToTotal) {
  mem::Memory mem(64 * 1024);
  xasm::Assembler a(0);
  RegionMap regions;
  const addr_t lo = a.current_addr();
  for (int i = 0; i < 8; ++i) a.addi(r::a0, r::a0, 1);
  regions.add_range("body", lo, a.current_addr());
  a.ecall();
  auto prog = a.finish();
  prog.load(mem);

  sim::Core core(mem);
  core.reset(0);
  Profiler prof(core, regions);
  core.run();
  prof.finalize();

  const std::string folded = prof.collapsed_stacks("core0");
  u64 sum = 0;
  std::istringstream is(folded);
  std::string line;
  while (std::getline(is, line)) {
    ASSERT_EQ(line.rfind("core0;", 0), 0u) << line;
    sum += std::stoull(line.substr(line.rfind(' ') + 1));
  }
  EXPECT_EQ(sum, prof.total().cycles);
  EXPECT_NE(folded.find("core0;body;addi "), std::string::npos);
}

TEST(Profiler, AddToRegistryPublishesRegions) {
  mem::Memory mem(64 * 1024);
  xasm::Assembler a(0);
  RegionMap regions;
  const addr_t lo = a.current_addr();
  a.li(r::a0, 1);
  regions.add_range("init", lo, a.current_addr());
  a.ecall();
  auto prog = a.finish();
  prog.load(mem);

  sim::Core core(mem);
  core.reset(0);
  Profiler prof(core, regions);
  core.run();
  prof.finalize();

  Registry reg;
  prof.add_to_registry(reg, "profile");
  EXPECT_TRUE(reg.contains("profile.total.cycles"));
  EXPECT_TRUE(reg.contains("profile.total.stall_cycles.qnt"));
  EXPECT_TRUE(reg.contains("profile.regions.init.cycles"));
  EXPECT_TRUE(reg.contains("profile.regions.other.cycles"));
}

TEST(Profiler, TrackPcOffDisablesHotspots) {
  mem::Memory mem(64 * 1024);
  xasm::Assembler a(0);
  a.li(r::a0, 1);
  a.ecall();
  auto prog = a.finish();
  prog.load(mem);

  sim::Core core(mem);
  core.reset(0);
  Profiler::Options o;
  o.track_pc = false;
  RegionMap none;
  Profiler prof(core, none, o);
  core.run();
  prof.finalize();
  EXPECT_TRUE(prof.hotspots(10).empty());
  EXPECT_EQ(prof.total().cycles, core.perf().cycles);
}

}  // namespace
}  // namespace xpulp::obs
