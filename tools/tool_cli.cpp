#include "tool_cli.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string_view>

namespace xpulp::tools {

using kernels::ConvVariant;

bool OptionReader::next() {
  if (!ok_ || ++i_ >= argc_) return false;
  opt_ = argv_[i_];
  if (opt_ == "--help" || opt_ == "-h") {
    usage_();
    std::exit(0);
  }
  return true;
}

const char* OptionReader::value() {
  if (i_ + 1 < argc_) return argv_[++i_];
  std::fprintf(stderr, "%s: %s needs a value\n", tool_, opt_.c_str());
  ok_ = false;
  return nullptr;
}

void OptionReader::text(std::string& out) {
  if (const char* v = value()) out = v;
}

void OptionReader::reject(const char* v, const std::string& what) {
  if (v) {
    std::fprintf(stderr, "%s: %s needs %s, got '%s'\n", tool_, opt_.c_str(),
                 what.c_str(), v);
  } else {
    std::fprintf(stderr, "%s: unknown option %s\n", tool_, opt_.c_str());
  }
  ok_ = false;
}

bool OptionReader::parse_count(u64 lo, u64 hi, u64& out) {
  const char* v = value();
  if (!v) return false;
  std::string_view s(v);
  const bool hex = s.starts_with("0x") || s.starts_with("0X");
  if (hex) s.remove_prefix(2);
  // from_chars takes no sign, blank or prefix: all of `s` must be digits.
  const auto [end, ec] =
      std::from_chars(s.data(), s.data() + s.size(), out, hex ? 16 : 10);
  if (ec != std::errc() || end != s.data() + s.size() || out < lo ||
      out > hi) {
    reject(v, "an integer in [" + std::to_string(lo) + ", " +
                  std::to_string(hi) + "]");
    return false;
  }
  return true;
}

void OptionReader::choice(std::string& out,
                          std::initializer_list<const char*> names) {
  const char* v = value();
  if (!v) return;
  std::string all;
  for (const char* n : names) {
    if (!std::strcmp(v, n)) {
      out = v;
      return;
    }
    all += all.empty() ? "one of " : ", ";
    all += n;
  }
  reject(v, all);
}

void OptionReader::parse_real(const char* what, bool (*valid)(double),
                              double& out) {
  const char* v = value();
  if (!v) return;
  char* end = nullptr;
  const double r = std::strtod(v, &end);
  if (end == v || *end != '\0' || !valid(r)) {
    reject(v, what);
  } else {
    out = r;
  }
}

void OptionReader::rate(double& out) {
  parse_real("a rate in [0, 1]",
             [](double r) { return r >= 0.0 && r <= 1.0; }, out);
}

void OptionReader::positive(double& out) {
  parse_real("a finite number > 0",
             [](double r) { return r > 0.0 && std::isfinite(r); }, out);
}

bool OptionReader::layer_option(LayerArgs& a) {
  if (opt_ == "--bits") {
    count(a.bits);
  } else if (opt_ == "--variant") {
    std::string v;
    choice(v, {"8b", "sub", "subshf", "swq", "hwq"});
    if (v == "8b") a.variant = ConvVariant::kXpulpV2_8b;
    if (v == "sub") a.variant = ConvVariant::kXpulpV2_Sub;
    if (v == "subshf") a.variant = ConvVariant::kXpulpV2_SubShf;
    if (v == "swq") a.variant = ConvVariant::kXpulpNN_SwQ;
    if (v == "hwq") a.variant = ConvVariant::kXpulpNN_HwQ;
  } else if (opt_ == "--small") {
    a.small = true;
  } else if (opt_ == "--json") {
    text(a.json_path);
  } else {
    return false;
  }
  return true;
}

bool OptionReader::run_option(RunArgs& a) {
  if (layer_option(a)) return true;
  if (opt_ == "--core") {
    choice(a.core, {"ri5cy", "xpulpnn"});
  } else if (opt_ == "--check") {
    a.check = true;  // the default; accepted for explicit CI invocations
  } else if (opt_ == "--no-check") {
    a.check = false;
  } else if (opt_ == "--cores") {
    count(a.cores, 1);
  } else if (opt_ == "--trace") {
    text(a.trace_path);
  } else if (opt_ == "--folded") {
    text(a.folded_path);
  } else if (opt_ == "--csv") {
    text(a.csv_path);
  } else {
    return false;
  }
  return true;
}

bool OptionReader::finish() {
  if (!ok_) usage_();
  return ok_;
}

bool OptionReader::finish(const LayerArgs& a) {
  if (ok_) {
    const std::string err = bits_variant_error(a.bits, a.variant);
    if (err.empty()) return true;
    std::fprintf(stderr, "%s: %s\n", tool_, err.c_str());
  }
  usage_();
  return false;
}

std::string bits_variant_error(unsigned bits, ConvVariant v) {
  if (bits != 8 && bits != 4 && bits != 2) return "--bits must be 8, 4 or 2";
  if (v == ConvVariant::kXpulpV2_8b && bits != 8) {
    return "variant 8b requires --bits 8";
  }
  if (v != ConvVariant::kXpulpV2_8b && bits == 8) {
    return "sub-byte variants need --bits 4 or 2";
  }
  if (v == ConvVariant::kXpulpV2_SubShf && bits != 4) {
    return "variant subshf requires --bits 4";
  }
  return {};
}

qnn::ConvSpec layer_spec(unsigned bits, bool small) {
  qnn::ConvSpec spec = qnn::ConvSpec::paper_layer(bits);
  if (small) {
    spec.in_h = spec.in_w = 6;
    spec.in_c = 16;
    spec.out_c = 8;
  }
  return spec;
}

int run_layer_tool(const char* tool, const RunArgs& a,
                   const sim::CoreConfig& cfg, const LayerBody& body) {
  try {
    if (!kernels::variant_supported(a.variant, cfg)) {
      std::fprintf(stderr, "%s: variant %s is not supported on core %s\n",
                   tool, kernels::variant_name(a.variant), cfg.name.c_str());
      return 2;
    }
    const auto data = kernels::ConvLayerData::random(
        layer_spec(a.bits, a.small), /*seed=*/7);
    std::unique_ptr<obs::Timeline> timeline;
    if (!a.trace_path.empty()) timeline = std::make_unique<obs::Timeline>();

    obs::Registry reg;
    const int rc = body(data, reg, timeline.get());

    if (timeline) {
      std::ofstream f(a.trace_path);
      if (!f) {
        std::fprintf(stderr, "%s: cannot write trace to %s\n", tool,
                     a.trace_path.c_str());
        return 1;
      }
      timeline->write_chrome_json(f);
      std::printf(
          "wrote Perfetto trace: %s (%llu events, %llu counter points, "
          "%llu dropped)\n",
          a.trace_path.c_str(),
          static_cast<unsigned long long>(timeline->size()),
          static_cast<unsigned long long>(timeline->counters_recorded()),
          static_cast<unsigned long long>(timeline->dropped() +
                                          timeline->counters_dropped()));
    }
    if (!a.json_path.empty() && reg.save_json(a.json_path)) {
      std::printf("wrote metrics JSON: %s\n", a.json_path.c_str());
    }
    if (!a.csv_path.empty() && reg.save_csv(a.csv_path)) {
      std::printf("wrote metrics CSV: %s\n", a.csv_path.c_str());
    }
    return rc;
  } catch (const SimError& e) {
    std::fprintf(stderr, "%s: %s\n", tool, e.what());
    return 1;
  }
}

bool check_layer_run(const char* tool, const kernels::ConvLayerData& data,
                     const kernels::ConvMemLayout& layout,
                     const mem::Memory& mem, const sim::PerfCounters& perf) {
  bool ok = true;
  if (!(kernels::read_conv_output(data.spec, layout, mem) == data.golden())) {
    std::fprintf(stderr, "%s: output does not match the golden model\n",
                 tool);
    ok = false;
  }
  const std::string inv = sim::perf_invariant_violation(perf);
  if (!inv.empty()) {
    std::fprintf(stderr, "%s: perf invariant violated: %s\n", tool,
                 inv.c_str());
    ok = false;
  }
  return ok;
}

bool write_text_file(const char* tool, const std::string& path,
                     const std::string& body, const char* what) {
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "%s: cannot write %s to %s\n", tool, what,
                 path.c_str());
    return false;
  }
  f << body;
  std::printf("wrote %s: %s\n", what, path.c_str());
  return true;
}

}  // namespace xpulp::tools
