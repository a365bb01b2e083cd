// Unified metrics registry: one insertion-ordered bag of named counters,
// gauges, flags and text values with JSON and CSV exporters. Bench
// binaries, xprof and tests publish PerfCounters / memory stats / power
// numbers here instead of hand-rolling their own emission.
//
// Metric names are dotted paths ("workloads.conv4b.fast.mips"); the JSON
// exporter nests objects along the dots, the CSV exporter writes one
// `metric,value` row per leaf.
#pragma once

#include <ostream>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/types.hpp"
#include "mem/memory.hpp"
#include "sim/core.hpp"

namespace xpulp::obs {

class Registry {
 public:
  using Value = std::variant<u64, double, bool, std::string>;

  /// Version of the JSON export layout, written as a top-level
  /// "schema_version" key by write_json so downstream parsers (CI smoke
  /// scripts, plotting notebooks) can detect layout changes. Bump when a
  /// serialized representation changes incompatibly.
  static constexpr u64 kSchemaVersion = 1;

  /// Monotonic integer metric (counts, cycles, bytes).
  void counter(std::string_view path, u64 v) { set(path, Value(v)); }
  /// Floating-point metric (rates, ratios, milliwatts).
  void gauge(std::string_view path, double v) { set(path, Value(v)); }
  void flag(std::string_view path, bool v) { set(path, Value(v)); }
  void text(std::string_view path, std::string_view v) {
    set(path, Value(std::string(v)));
  }

  /// Set any value; an existing metric with the same path is overwritten.
  void set(std::string_view path, Value v);

  bool contains(std::string_view path) const;
  size_t size() const { return metrics_.size(); }

  /// Nested, two-space-indented JSON with a leading "schema_version" key
  /// (kSchemaVersion; suppressed if a metric already claimed that path).
  /// Non-finite doubles serialize as the strings "NaN" / "Infinity" /
  /// "-Infinity" — JSON has no literals for them. Throws SimError if one
  /// path is both a leaf and a prefix of another ("a.b" alongside
  /// "a.b.c").
  void write_json(std::ostream& os) const;
  std::string json() const;

  /// `metric,value` rows, one per leaf, insertion order, with header.
  /// Paths and string values containing commas, quotes or newlines are
  /// RFC-4180 quoted so every row stays two columns.
  void write_csv(std::ostream& os) const;
  std::string csv() const;

  /// Write the JSON export to `path` (creates/truncates). Returns false
  /// (and writes nothing) if the file can't be opened.
  bool save_json(const std::string& path) const;
  bool save_csv(const std::string& path) const;

 private:
  struct Metric {
    std::string path;
    Value value;
  };
  std::vector<Metric> metrics_;
};

/// Publish every PerfCounters field under `prefix` (e.g. "perf").
void add_perf_counters(Registry& r, std::string_view prefix,
                       const sim::PerfCounters& p);

/// Publish MemStats fields under `prefix` (e.g. "mem").
void add_mem_stats(Registry& r, std::string_view prefix,
                   const mem::MemStats& s);

/// Publish superblock-engine coverage/fallback counters under `prefix`
/// (e.g. "sim.superblock"), plus the derived fused_fraction and
/// macro_fraction (shares of `total_instructions` retired fused and by
/// the kConvInner macro-op) when `total_instructions` is nonzero.
void add_superblock_stats(Registry& r, std::string_view prefix,
                          const sim::SuperblockStats& s,
                          u64 total_instructions = 0);

}  // namespace xpulp::obs
