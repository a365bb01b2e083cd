#include "qnn/ref_layers.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>

namespace xpulp::qnn {

std::vector<i32> im2col_ref(const Tensor& in, const ConvSpec& s, int oy,
                            int ox) {
  std::vector<i32> col(static_cast<size_t>(s.filter_elems()), 0);
  size_t i = 0;
  for (int ky = 0; ky < s.k_h; ++ky) {
    for (int kx = 0; kx < s.k_w; ++kx) {
      const int y = oy * s.stride - s.pad + ky;
      const int x = ox * s.stride - s.pad + kx;
      for (int c = 0; c < s.in_c; ++c, ++i) {
        if (y >= 0 && y < s.in_h && x >= 0 && x < s.in_w) {
          col[i] = in.at(y, x, c);
        }
      }
    }
  }
  return col;
}

i32 conv_accumulate(const Tensor& in, const FilterBank& w, const ConvSpec& s,
                    int oy, int ox, int oc) {
  i32 acc = 0;
  int i = 0;
  for (int ky = 0; ky < s.k_h; ++ky) {
    for (int kx = 0; kx < s.k_w; ++kx) {
      const int y = oy * s.stride - s.pad + ky;
      const int x = ox * s.stride - s.pad + kx;
      for (int c = 0; c < s.in_c; ++c, ++i) {
        if (y >= 0 && y < s.in_h && x >= 0 && x < s.in_w) {
          acc += in.at(y, x, c) * w.flat(oc, i);
        }
      }
    }
  }
  return acc;
}

std::vector<i32> conv_accumulators(const Tensor& in, const FilterBank& w,
                                   const ConvSpec& s) {
  assert(in.shape().h == s.in_h && in.shape().w == s.in_w &&
         in.shape().c == s.in_c);
  assert(w.count() == s.out_c && w.filter_elems() == s.filter_elems());
  const size_t n = static_cast<size_t>(s.filter_elems());
  std::vector<i32> accs;
  accs.reserve(static_cast<size_t>(s.out_h()) * s.out_w() * s.out_c);
  for (int oy = 0; oy < s.out_h(); ++oy) {
    for (int ox = 0; ox < s.out_w(); ++ox) {
      // One im2col column per output pixel, dotted with every filter.
      const std::vector<i32> col = im2col_ref(in, s, oy, ox);
      for (size_t oc = 0; oc < static_cast<size_t>(s.out_c); ++oc) {
        accs.push_back(std::inner_product(col.begin(), col.end(),
                                          w.data().begin() + oc * n, 0));
      }
    }
  }
  return accs;
}

Tensor requantize(const std::vector<i32>& accs, const LayerThresholds& th,
                  const ConvSpec& s) {
  Tensor out({s.out_h(), s.out_w(), s.out_c});
  assert(accs.size() == out.data().size());
  for (size_t i = 0; i < accs.size(); ++i) {
    // The hardware quantization unit consumes 16-bit pre-activations;
    // data generators must keep accumulators in range.
    assert(accs[i] >= -32768 && accs[i] <= 32767);
    const int oc = static_cast<int>(i % static_cast<size_t>(s.out_c));
    out.data()[i] = static_cast<i32>(th.channel(oc).quantize(accs[i]));
  }
  return out;
}

Tensor requantize_u8(const std::vector<i32>& accs, const ConvSpec& s) {
  Tensor out({s.out_h(), s.out_w(), s.out_c});
  assert(accs.size() == out.data().size());
  for (size_t i = 0; i < accs.size(); ++i) {
    out.data()[i] = std::clamp<i32>(accs[i] >> s.requant_shift, 0, 255);
  }
  return out;
}

Tensor conv2d_ref(const Tensor& in, const FilterBank& w,
                  const LayerThresholds& th, const ConvSpec& s) {
  if (th.channels() != s.out_c || th.q_bits() != s.out_bits) {
    throw std::invalid_argument("threshold set does not match layer");
  }
  return requantize(conv_accumulators(in, w, s), th, s);
}

Tensor conv2d_ref_u8(const Tensor& in, const FilterBank& w,
                     const ConvSpec& s) {
  return requantize_u8(conv_accumulators(in, w, s), s);
}

Tensor linear_ref(const Tensor& in, const FilterBank& w,
                  const LayerThresholds& th) {
  assert(in.shape().h == 1 && in.shape().w == 1);
  assert(w.filter_elems() == in.shape().c);
  Tensor out({1, 1, w.count()});
  for (int f = 0; f < w.count(); ++f) {
    i32 acc = 0;
    for (int i = 0; i < w.filter_elems(); ++i) {
      acc += in.flat(i) * w.flat(f, i);
    }
    assert(acc >= -32768 && acc <= 32767);
    out.at(0, 0, f) = static_cast<i32>(th.channel(f).quantize(acc));
  }
  return out;
}

Tensor maxpool2x2_ref(const Tensor& in) {
  const Shape s = in.shape();
  assert(s.h % 2 == 0 && s.w % 2 == 0);
  Tensor out({s.h / 2, s.w / 2, s.c});
  for (int y = 0; y < s.h / 2; ++y) {
    for (int x = 0; x < s.w / 2; ++x) {
      for (int c = 0; c < s.c; ++c) {
        const i32 m = std::max(
            std::max(in.at(2 * y, 2 * x, c), in.at(2 * y, 2 * x + 1, c)),
            std::max(in.at(2 * y + 1, 2 * x, c), in.at(2 * y + 1, 2 * x + 1, c)));
        out.at(y, x, c) = m;
      }
    }
  }
  return out;
}

Tensor avgpool2x2_ref(const Tensor& in) {
  const Shape s = in.shape();
  assert(s.h % 2 == 0 && s.w % 2 == 0);
  Tensor out({s.h / 2, s.w / 2, s.c});
  for (int y = 0; y < s.h / 2; ++y) {
    for (int x = 0; x < s.w / 2; ++x) {
      for (int c = 0; c < s.c; ++c) {
        // Cascaded averaging, exactly as a pv.avgu-based kernel computes it
        // (horizontal pair averages, then the vertical average of those).
        const i32 top = (in.at(2 * y, 2 * x, c) + in.at(2 * y, 2 * x + 1, c)) >> 1;
        const i32 bot =
            (in.at(2 * y + 1, 2 * x, c) + in.at(2 * y + 1, 2 * x + 1, c)) >> 1;
        out.at(y, x, c) = (top + bot) >> 1;
      }
    }
  }
  return out;
}

Tensor relu_ref(const Tensor& in) {
  Tensor out(in.shape());
  for (int i = 0; i < in.elems(); ++i) {
    out.flat(i) = std::max<i32>(in.flat(i), 0);
  }
  return out;
}

}  // namespace xpulp::qnn
