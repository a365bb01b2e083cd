#include "qnn/thresholds.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

namespace xpulp::qnn {

namespace {

// In-order traversal of the implicit tree assigns sorted values so that a
// standard BST walk (go right when x >= node) counts thresholds <= x.
void fill_eytzinger(const std::vector<i16>& sorted, std::vector<i16>& out,
                    size_t node, size_t& next) {
  if (node >= sorted.size()) return;
  fill_eytzinger(sorted, out, 2 * node + 1, next);
  out[node] = sorted[next++];
  fill_eytzinger(sorted, out, 2 * node + 2, next);
}

}  // namespace

Thresholds::Thresholds(unsigned q_bits, std::vector<i16> sorted)
    : q_bits_(q_bits), sorted_(std::move(sorted)) {
  if (q_bits_ < 1 || q_bits_ > 8) {
    throw std::invalid_argument("q_bits must be in [1, 8]");
  }
  const size_t n = (size_t{1} << q_bits_) - 1;
  if (sorted_.size() != n) {
    throw std::invalid_argument("need 2^Q - 1 thresholds");
  }
  if (!std::is_sorted(sorted_.begin(), sorted_.end())) {
    throw std::invalid_argument("thresholds must be ascending");
  }
  eytzinger_.assign(n + 1, std::numeric_limits<i16>::max());
  size_t next = 0;
  fill_eytzinger(sorted_, eytzinger_, 0, next);
  assert(next == n);
}

Thresholds Thresholds::uniform(unsigned q_bits, i32 step, i32 offset) {
  assert(step > 0);
  const int n = (1 << q_bits) - 1;
  std::vector<i16> s(static_cast<size_t>(n));
  // Thresholds at offset + step*(i - n/2): a centered uniform staircase.
  for (int i = 0; i < n; ++i) {
    const i32 t = offset + step * (i - n / 2);
    s[static_cast<size_t>(i)] = static_cast<i16>(
        std::clamp<i32>(t, std::numeric_limits<i16>::min(),
                        std::numeric_limits<i16>::max()));
  }
  return Thresholds(q_bits, std::move(s));
}

Thresholds Thresholds::random(Rng& rng, unsigned q_bits, i16 lo, i16 hi) {
  const int n = (1 << q_bits) - 1;
  std::vector<i16> s(static_cast<size_t>(n));
  // Draw n distinct values then sort: strict monotonicity keeps the
  // hardware walk and the linear count in exact agreement at boundaries.
  for (int attempt = 0;; ++attempt) {
    for (auto& v : s) v = static_cast<i16>(rng.uniform(lo, hi));
    std::sort(s.begin(), s.end());
    if (std::adjacent_find(s.begin(), s.end()) == s.end()) break;
    if (attempt > 64) {  // tiny range: fall back to forced distinct values
      for (int i = 0; i < n; ++i) {
        s[static_cast<size_t>(i)] = static_cast<i16>(lo + i);
      }
      break;
    }
  }
  return Thresholds(q_bits, std::move(s));
}

Thresholds quantile_thresholds(std::vector<i32> accs, unsigned q_bits) {
  assert(!accs.empty());
  std::sort(accs.begin(), accs.end());
  const size_t levels = size_t{1} << q_bits;
  std::vector<i16> s(levels - 1);
  i32 prev = std::numeric_limits<i32>::min();
  for (size_t i = 1; i < levels; ++i) {
    i32 t = accs[std::min(accs.size() - 1, i * accs.size() / levels)];
    if (t <= prev) t = prev + 1;
    prev = std::clamp<i32>(t, std::numeric_limits<i16>::min(),
                           std::numeric_limits<i16>::max());
    s[i - 1] = static_cast<i16>(prev);
  }
  return Thresholds(q_bits, std::move(s));
}

u32 Thresholds::quantize(i32 x) const {
  u32 code = 0;
  for (const i16 t : sorted_) {
    if (x >= t) ++code;
  }
  return code;
}

LayerThresholds::LayerThresholds(unsigned q_bits,
                                 std::vector<Thresholds> per_channel)
    : q_bits_(q_bits), per_channel_(std::move(per_channel)) {
  for (const auto& t : per_channel_) {
    if (t.q_bits() != q_bits_) {
      throw std::invalid_argument("mixed q_bits in LayerThresholds");
    }
  }
}

LayerThresholds LayerThresholds::random(Rng& rng, unsigned q_bits,
                                        int channels, i16 lo, i16 hi) {
  std::vector<Thresholds> per;
  per.reserve(static_cast<size_t>(channels));
  for (int c = 0; c < channels; ++c) {
    per.push_back(Thresholds::random(rng, q_bits, lo, hi));
  }
  return LayerThresholds(q_bits, std::move(per));
}

std::vector<u8> LayerThresholds::serialize() const {
  const u32 stride = stride_bytes();
  std::vector<u8> out(static_cast<size_t>(stride) * per_channel_.size(), 0);
  for (size_t c = 0; c < per_channel_.size(); ++c) {
    const auto& tree = per_channel_[c].eytzinger();
    for (size_t i = 0; i < tree.size(); ++i) {
      const u16 v = static_cast<u16>(tree[i]);
      out[c * stride + i * 2] = static_cast<u8>(v & 0xff);
      out[c * stride + i * 2 + 1] = static_cast<u8>(v >> 8);
    }
  }
  return out;
}

}  // namespace xpulp::qnn
