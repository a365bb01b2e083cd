#include "obs/registry.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/error.hpp"

namespace xpulp::obs {

void Registry::set(std::string_view path, Value v) {
  for (Metric& m : metrics_) {
    if (m.path == path) {
      m.value = std::move(v);
      return;
    }
  }
  metrics_.push_back({std::string(path), std::move(v)});
}

bool Registry::contains(std::string_view path) const {
  for (const Metric& m : metrics_) {
    if (m.path == path) return true;
  }
  return false;
}

namespace {

void write_value(std::ostream& os, const Registry::Value& v) {
  if (const u64* u = std::get_if<u64>(&v)) {
    os << *u;
  } else if (const double* d = std::get_if<double>(&v)) {
    if (!std::isfinite(*d)) {
      // JSON has no NaN/inf literals; keep the information as a string.
      os << (std::isnan(*d) ? "\"NaN\""
                            : (*d > 0 ? "\"Infinity\"" : "\"-Infinity\""));
      return;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", *d);
    os << buf;
  } else if (const bool* b = std::get_if<bool>(&v)) {
    os << (*b ? "true" : "false");
  } else {
    os << '"';
    for (char c : std::get<std::string>(v)) {
      if (c == '"' || c == '\\') os << '\\';
      os << c;
    }
    os << '"';
  }
}

/// Insertion-ordered path tree built from the dotted metric names.
struct Node {
  std::vector<std::pair<std::string, Node>> children;
  const Registry::Value* leaf = nullptr;
};

Node build_tree(const std::vector<std::pair<std::string, const Registry::Value*>>&
                    metrics) {
  Node root;
  for (const auto& [path, value] : metrics) {
    Node* n = &root;
    size_t start = 0;
    while (true) {
      const size_t dot = path.find('.', start);
      const std::string seg =
          path.substr(start, dot == std::string::npos ? dot : dot - start);
      Node* child = nullptr;
      for (auto& [name, c] : n->children) {
        if (name == seg) {
          child = &c;
          break;
        }
      }
      if (!child) {
        n->children.emplace_back(seg, Node{});
        child = &n->children.back().second;
      }
      if (child->leaf) {
        throw SimError("metric path conflict at '" + path.substr(0, dot) +
                       "': already a leaf");
      }
      n = child;
      if (dot == std::string::npos) break;
      start = dot + 1;
    }
    if (!n->children.empty()) {
      throw SimError("metric path conflict at '" + path +
                     "': already an object");
    }
    n->leaf = value;
  }
  return root;
}

void write_node(std::ostream& os, const Node& n, int indent) {
  if (n.leaf) {
    write_value(os, *n.leaf);
    return;
  }
  os << "{";
  const std::string pad(static_cast<size_t>(indent + 2), ' ');
  bool first = true;
  for (const auto& [name, child] : n.children) {
    os << (first ? "\n" : ",\n") << pad << '"';
    for (char c : name) {
      if (c == '"' || c == '\\') os << '\\';
      os << c;
    }
    os << "\": ";
    write_node(os, child, indent + 2);
    first = false;
  }
  os << "\n" << std::string(static_cast<size_t>(indent), ' ') << "}";
}

}  // namespace

void Registry::write_json(std::ostream& os) const {
  std::vector<std::pair<std::string, const Value*>> flat;
  flat.reserve(metrics_.size() + 1);
  static const Value kVersion{kSchemaVersion};
  if (!contains("schema_version")) flat.emplace_back("schema_version",
                                                     &kVersion);
  for (const Metric& m : metrics_) flat.emplace_back(m.path, &m.value);
  write_node(os, build_tree(flat), 0);
  os << "\n";
}

namespace {

void write_csv_field(std::ostream& os, std::string_view s) {
  if (s.find_first_of(",\"\n\r") == std::string_view::npos) {
    os << s;
    return;
  }
  os << '"';
  for (char c : s) {
    if (c == '"') os << '"';
    os << c;
  }
  os << '"';
}

}  // namespace

void Registry::write_csv(std::ostream& os) const {
  os << "metric,value\n";
  for (const Metric& m : metrics_) {
    write_csv_field(os, m.path);
    os << ',';
    if (const std::string* s = std::get_if<std::string>(&m.value)) {
      // RFC-4180 quoting: only when the value needs it, so plain strings
      // stay bare and commas/quotes keep the row two-column.
      write_csv_field(os, *s);
    } else if (const double* d = std::get_if<double>(&m.value);
               d && !std::isfinite(*d)) {
      // CSV is untyped; bare NaN/Infinity round-trips through spreadsheet
      // tools better than the JSON-style quoted form.
      os << (std::isnan(*d) ? "NaN" : (*d > 0 ? "Infinity" : "-Infinity"));
    } else {
      write_value(os, m.value);
    }
    os << '\n';
  }
}

std::string Registry::json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

std::string Registry::csv() const {
  std::ostringstream os;
  write_csv(os);
  return os.str();
}

bool Registry::save_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  write_json(f);
  return static_cast<bool>(f);
}

bool Registry::save_csv(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  write_csv(f);
  return static_cast<bool>(f);
}

void add_perf_counters(Registry& r, std::string_view prefix,
                       const sim::PerfCounters& p) {
  const std::string pre = std::string(prefix) + ".";
  r.counter(pre + "cycles", p.cycles);
  r.counter(pre + "instructions", p.instructions);
  r.counter(pre + "taken_branches", p.taken_branches);
  r.counter(pre + "not_taken_branches", p.not_taken_branches);
  r.counter(pre + "jumps", p.jumps);
  r.counter(pre + "branch_stall_cycles", p.branch_stall_cycles);
  r.counter(pre + "load_use_stall_cycles", p.load_use_stall_cycles);
  r.counter(pre + "mem_stall_cycles", p.mem_stall_cycles);
  r.counter(pre + "mul_div_stall_cycles", p.mul_div_stall_cycles);
  r.counter(pre + "qnt_stall_cycles", p.qnt_stall_cycles);
  r.counter(pre + "hwloop_backedges", p.hwloop_backedges);
  r.counter(pre + "loads", p.loads);
  r.counter(pre + "stores", p.stores);
  r.counter(pre + "scalar_alu_ops", p.scalar_alu_ops);
  r.counter(pre + "mul_ops", p.mul_ops);
  r.counter(pre + "mac_ops", p.mac_ops);
  r.counter(pre + "div_ops", p.div_ops);
  r.counter(pre + "simd_alu_ops", p.simd_alu_ops);
  r.counter(pre + "qnt_ops", p.qnt_ops);
  r.counter(pre + "csr_ops", p.csr_ops);
  r.counter(pre + "sys_ops", p.sys_ops);
  static const char* kRegion[4] = {"16b", "8b", "4b", "2b"};
  for (unsigned i = 0; i < 4; ++i) {
    r.counter(pre + "dotp_ops." + kRegion[i], p.dotp_ops[i]);
  }
  static const char* kMixed[3] = {"8x4", "8x2", "4x2"};
  for (unsigned i = 0; i < 3; ++i) {
    r.counter(pre + "mixed_dotp_ops." + kMixed[i], p.mixed_dotp_ops[i]);
  }
  r.counter(pre + "lsu_data_toggles", p.lsu_data_toggles);
}

void add_mem_stats(Registry& r, std::string_view prefix,
                   const mem::MemStats& s) {
  const std::string pre = std::string(prefix) + ".";
  r.counter(pre + "loads", s.loads);
  r.counter(pre + "stores", s.stores);
  r.counter(pre + "load_bytes", s.load_bytes);
  r.counter(pre + "store_bytes", s.store_bytes);
  r.counter(pre + "misaligned_accesses", s.misaligned_accesses);
  r.counter(pre + "contention_stalls", s.contention_stalls);
}

void add_superblock_stats(Registry& r, std::string_view prefix,
                          const sim::SuperblockStats& s,
                          u64 total_instructions) {
  const std::string pre = std::string(prefix) + ".";
  r.counter(pre + "blocks_compiled", s.blocks_compiled);
  r.counter(pre + "plan_reuses", s.plan_reuses);
  r.counter(pre + "compile_rejects", s.compile_rejects);
  r.counter(pre + "entries", s.entries);
  r.counter(pre + "entry_rejects", s.entry_rejects);
  r.counter(pre + "fused_iterations", s.fused_iterations);
  r.counter(pre + "fused_instructions", s.fused_instructions);
  r.counter(pre + "macro_iterations", s.macro_iterations);
  r.counter(pre + "smc_bails", s.smc_bails);
  r.counter(pre + "trap_bails", s.trap_bails);
  r.counter(pre + "sample_flushes", s.sample_flushes);
  r.counter(pre + "burst_flushes", s.burst_flushes);
  r.counter(pre + "region_rejects", s.region_rejects);
  r.counter(pre + "invalidations", s.invalidations);
  r.counter(pre + "mpc_evictions", s.mpc_evictions);
  if (total_instructions != 0) {
    r.gauge(pre + "fused_fraction",
            static_cast<double>(s.fused_instructions) /
                static_cast<double>(total_instructions));
    r.gauge(pre + "macro_fraction",
            static_cast<double>(s.macro_iterations *
                                sim::SuperblockStats::kMacroIterationOps) /
                static_cast<double>(total_instructions));
  }
}

}  // namespace xpulp::obs
