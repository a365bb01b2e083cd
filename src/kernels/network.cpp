#include "kernels/network.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "qnn/ref_layers.hpp"

namespace xpulp::kernels {

namespace {

/// Threshold construction against the layer's actual input: per-channel
/// accumulator quantiles, falling back to layer-global quantiles when a
/// channel has too few spatial positions (e.g. fully-connected layers).
qnn::LayerThresholds trained_thresholds(const qnn::Tensor& input,
                                        const qnn::FilterBank& weights,
                                        const qnn::ConvSpec& spec) {
  const int levels = 1 << spec.out_bits;
  const int positions = spec.out_h() * spec.out_w();
  auto from_accs = [&](std::vector<i32>& accs) {
    std::sort(accs.begin(), accs.end());
    std::vector<i16> th(static_cast<size_t>(levels - 1));
    i32 prev = -40000;
    for (int i = 1; i < levels; ++i) {
      i32 t = accs[std::min(accs.size() - 1,
                            static_cast<size_t>(i) * accs.size() / levels)];
      if (t <= prev) t = prev + 1;
      t = std::clamp<i32>(t, -32768, 32767);
      th[static_cast<size_t>(i - 1)] = static_cast<i16>(t);
      prev = t;
    }
    return th;
  };

  std::vector<qnn::Thresholds> per_channel;
  if (positions < 2 * levels) {
    std::vector<i32> accs;
    for (int oc = 0; oc < spec.out_c; ++oc) {
      for (int oy = 0; oy < spec.out_h(); ++oy) {
        for (int ox = 0; ox < spec.out_w(); ++ox) {
          accs.push_back(qnn::conv_accumulate(input, weights, spec, oy, ox, oc));
        }
      }
    }
    const qnn::Thresholds shared(spec.out_bits, from_accs(accs));
    per_channel.assign(static_cast<size_t>(spec.out_c), shared);
  } else {
    for (int oc = 0; oc < spec.out_c; ++oc) {
      std::vector<i32> accs;
      for (int oy = 0; oy < spec.out_h(); ++oy) {
        for (int ox = 0; ox < spec.out_w(); ++ox) {
          accs.push_back(qnn::conv_accumulate(input, weights, spec, oy, ox, oc));
        }
      }
      per_channel.emplace_back(spec.out_bits, from_accs(accs));
    }
  }
  return qnn::LayerThresholds(spec.out_bits, std::move(per_channel));
}

}  // namespace

Network::Network(qnn::Shape input_shape, unsigned bits, u64 seed)
    : bits_(bits), cur_bits_(bits), seed_(seed), shape_(input_shape) {
  if (bits != 2 && bits != 4 && bits != 8) {
    throw SimError("network bits must be 2, 4 or 8");
  }
}

Network& Network::conv(int out_c, int k, int pad) {
  return conv(out_c, k, pad, LayerPrecision{cur_bits_, cur_bits_});
}

Network& Network::conv(int out_c, int k, int pad, LayerPrecision p) {
  if (p.out_bits != 2 && p.out_bits != 4 && p.out_bits != 8) {
    throw SimError("layer out_bits must be 2, 4 or 8");
  }
  if (p.w_bits != cur_bits_) {
    mixed_sel_for(cur_bits_, p.w_bits);  // throws on unsupported pair
  }
  Step s;
  s.kind = Step::Kind::kConv;
  s.spec.in_h = shape_.h;
  s.spec.in_w = shape_.w;
  s.spec.in_c = shape_.c;
  s.spec.out_c = out_c;
  s.spec.k_h = s.spec.k_w = k;
  s.spec.pad = pad;
  s.spec.in_bits = cur_bits_;
  s.spec.w_bits = p.w_bits;
  s.spec.out_bits = p.out_bits;
  s.bits = cur_bits_;
  s.seed = seed_ + plan_.size() * 977;
  s.name = "conv" + std::to_string(plan_.size());
  shape_ = {s.spec.out_h(), s.spec.out_w(), out_c};
  cur_bits_ = p.out_bits;
  plan_.push_back(std::move(s));
  return *this;
}

Network& Network::maxpool() {
  Step s;
  s.kind = Step::Kind::kMaxPool;
  s.name = "maxpool" + std::to_string(plan_.size());
  s.bits = cur_bits_;
  s.seed = 0;
  shape_ = {shape_.h / 2, shape_.w / 2, shape_.c};
  plan_.push_back(std::move(s));
  return *this;
}

Network& Network::avgpool() {
  Step s;
  s.kind = Step::Kind::kAvgPool;
  s.name = "avgpool" + std::to_string(plan_.size());
  s.bits = cur_bits_;
  s.seed = 0;
  shape_ = {shape_.h / 2, shape_.w / 2, shape_.c};
  plan_.push_back(std::move(s));
  return *this;
}

Network& Network::linear(int out_features) {
  return linear(out_features, LayerPrecision{cur_bits_, cur_bits_});
}

Network& Network::linear(int out_features, LayerPrecision p) {
  if (p.out_bits != 2 && p.out_bits != 4 && p.out_bits != 8) {
    throw SimError("layer out_bits must be 2, 4 or 8");
  }
  if (p.w_bits != cur_bits_) {
    mixed_sel_for(cur_bits_, p.w_bits);  // throws on unsupported pair
  }
  Step s;
  s.kind = Step::Kind::kLinear;
  s.spec = qnn::ConvSpec::linear(shape_.elems(), out_features, cur_bits_,
                                 p.w_bits, p.out_bits);
  s.bits = cur_bits_;
  s.seed = seed_ + plan_.size() * 977;
  s.name = "linear" + std::to_string(plan_.size());
  shape_ = {1, 1, out_features};
  cur_bits_ = p.out_bits;
  plan_.push_back(std::move(s));
  return *this;
}

NetworkResult Network::run(const qnn::Tensor& input,
                           const sim::CoreConfig& cfg,
                           ConvVariant variant) const {
  NetworkResult res;
  qnn::Tensor act = input;

  for (const Step& step : plan_) {
    LayerStats st;
    st.name = step.name;
    switch (step.kind) {
      case Step::Kind::kConv:
      case Step::Kind::kLinear: {
        ConvLayerData data = ConvLayerData::random(step.spec, step.seed);
        if (step.kind == Step::Kind::kLinear) {
          qnn::Tensor flat({1, 1, act.elems()});
          flat.data() = act.data();
          data.input = flat;
        } else {
          data.input = act;
        }
        if (step.spec.out_bits != 8) {
          data.thresholds =
              trained_thresholds(data.input, data.weights, step.spec);
        }
        // Mixed-precision layers always dispatch to the virtual-SIMD
        // kernel; the variant parameter only selects among uniform ones.
        const ConvVariant v = step.spec.in_bits != step.spec.w_bits
                                  ? ConvVariant::kXpulpNN_Mixed
                                  : variant;
        const ConvRunResult r = run_conv_layer(data, v, cfg);
        const qnn::Tensor gold = data.golden();
        st.matched_golden = (r.output == gold);
        st.cycles = r.perf.cycles;
        st.macs = r.macs;
        st.out_shape = r.output.shape();
        act = r.output;
        break;
      }
      case Step::Kind::kMaxPool:
      case Step::Kind::kAvgPool: {
        const PoolOp op = (step.kind == Step::Kind::kMaxPool) ? PoolOp::kMax
                                                              : PoolOp::kAvg;
        const PoolRunResult r = run_pool2x2(act, step.bits, op, cfg);
        const qnn::Tensor gold = (op == PoolOp::kMax)
                                     ? qnn::maxpool2x2_ref(act)
                                     : qnn::avgpool2x2_ref(act);
        st.matched_golden = (r.output == gold);
        st.cycles = r.perf.cycles;
        st.macs = 0;
        st.out_shape = r.output.shape();
        act = r.output;
        break;
      }
    }
    res.total_cycles += st.cycles;
    res.total_macs += st.macs;
    res.all_matched = res.all_matched && st.matched_golden;
    res.layers.push_back(std::move(st));
  }
  res.output = std::move(act);
  return res;
}

}  // namespace xpulp::kernels
