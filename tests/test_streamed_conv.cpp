// µDMA weight streaming: functional equivalence with the resident kernels,
// makespan accounting, and the double-buffering benefit.
#include <gtest/gtest.h>

#include "sim_test_util.hpp"
#include "soc/streamed_conv.hpp"

namespace xpulp::soc {
namespace {

using kernels::ConvLayerData;
using kernels::ConvVariant;

qnn::ConvSpec small_spec(unsigned bits) {
  qnn::ConvSpec s;
  s.in_h = s.in_w = 6;
  s.in_c = 16;
  s.out_c = 16;
  s.in_bits = s.w_bits = s.out_bits = bits;
  return s;
}

TEST(Udma, TransferCycleModel) {
  mem::Memory l2(4096), tcdm(4096);
  Udma dma(l2, tcdm, 4, 16);
  EXPECT_EQ(dma.transfer_cycles(0), 16u);
  EXPECT_EQ(dma.transfer_cycles(4), 17u);
  EXPECT_EQ(dma.transfer_cycles(5), 18u);  // rounds up
  l2.store_u32(0x10, 0xdeadbeef);
  const auto c = dma.copy_in(0x10, 0x20, 4);
  EXPECT_EQ(c, 17u);
  EXPECT_EQ(tcdm.load_u32(0x20), 0xdeadbeefu);
  EXPECT_EQ(dma.total_bytes(), 4u);
  EXPECT_EQ(dma.transfers(), 1u);
}

// Uniform cases (w_bits == 0) stream the small 4-bit layer; mixed cases
// stream test::mixed_paper_layer(in_bits, w_bits).
struct TileCase {
  int tile;
  unsigned in_bits = 4;
  unsigned w_bits = 0;
};

// Uniform cases print as their bare tile size, which keeps their test
// names stable.
void PrintTo(const TileCase& c, std::ostream* os) {
  *os << c.tile;
  if (c.w_bits) *os << " (" << c.in_bits << "x" << c.w_bits << " mixed)";
}

class StreamedTiles : public ::testing::TestWithParam<TileCase> {};

TEST_P(StreamedTiles, BitExactForAnyTileSize) {
  const TileCase c = GetParam();
  const qnn::ConvSpec spec =
      c.w_bits ? test::mixed_paper_layer(c.in_bits, c.w_bits) : small_spec(4);
  const ConvVariant v =
      c.w_bits ? ConvVariant::kXpulpNN_Mixed : ConvVariant::kXpulpNN_HwQ;
  const auto data = ConvLayerData::random(spec, 0x5eed);
  const auto gold = data.golden();
  for (const bool dbuf : {false, true}) {
    const auto res = run_conv_streamed(data, v, sim::CoreConfig::extended(),
                                       c.tile, dbuf);
    ASSERT_EQ(res.tiles, spec.out_c / c.tile);
    for (int i = 0; i < gold.elems(); ++i) {
      ASSERT_EQ(res.output.flat(i), gold.flat(i))
          << "tile=" << c.tile << " dbuf=" << dbuf;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    TileSizes, StreamedTiles,
    ::testing::Values(TileCase{2}, TileCase{4}, TileCase{8}, TileCase{16},
                      // Mixed paper layers: 8x4, 8x2, 4x2.
                      TileCase{16, 8, 4}, TileCase{16, 8, 2},
                      TileCase{16, 4, 2}),
    [](const ::testing::TestParamInfo<TileCase>& info) {
      const TileCase& c = info.param;
      return (c.w_bits ? "a" + std::to_string(c.in_bits) + "w" +
                             std::to_string(c.w_bits) + "_"
                       : std::string()) +
             "t" + std::to_string(c.tile);
    });

TEST(StreamedConv, MatchesResidentKernelCycles) {
  // Per-tile compute sums to roughly the resident kernel (the channel loop
  // is just split; only per-tile setup is added).
  const auto data = ConvLayerData::random(small_spec(4), 3);
  const auto resident = kernels::run_conv_layer(
      data, ConvVariant::kXpulpNN_HwQ, sim::CoreConfig::extended());
  const auto streamed =
      run_conv_streamed(data, ConvVariant::kXpulpNN_HwQ,
                        sim::CoreConfig::extended(), 8);
  EXPECT_NEAR(static_cast<double>(streamed.compute_cycles),
              static_cast<double>(resident.perf.cycles),
              0.15 * static_cast<double>(resident.perf.cycles));
}

TEST(StreamedConv, DoubleBufferingHidesDmaTime) {
  // A DMA-heavy fully-connected layer (many weight bytes per MAC) at 1
  // byte/cycle: the ping-pong scheme must hide most of the transfer time.
  const auto data =
      ConvLayerData::random(qnn::ConvSpec::linear(512, 64, 4, 4, 4), 9);
  const auto serial = run_conv_streamed(data, ConvVariant::kXpulpNN_HwQ,
                                        sim::CoreConfig::extended(), 16,
                                        /*double_buffered=*/false,
                                        /*dma_bytes_per_cycle=*/1);
  const auto dbuf = run_conv_streamed(data, ConvVariant::kXpulpNN_HwQ,
                                      sim::CoreConfig::extended(), 16,
                                      /*double_buffered=*/true,
                                      /*dma_bytes_per_cycle=*/1);
  // Same work, same transfers.
  EXPECT_EQ(serial.compute_cycles, dbuf.compute_cycles);
  EXPECT_EQ(serial.dma_cycles, dbuf.dma_cycles);
  EXPECT_GT(serial.dma_cycles, serial.compute_cycles / 4);  // DMA matters
  EXPECT_LT(dbuf.makespan, serial.makespan);
  EXPECT_GT(dbuf.overlap_efficiency(), 0.2);
  // Output identical and correct.
  const auto gold = test::linear_golden(data);
  for (int i = 0; i < gold.elems(); ++i) {
    ASSERT_EQ(dbuf.output.flat(i), gold.flat(i));
  }
}

TEST(StreamedConv, MakespanNeverBeatsComputeAlone) {
  const auto data = ConvLayerData::random(small_spec(2), 4);
  const auto res = run_conv_streamed(data, ConvVariant::kXpulpNN_HwQ,
                                     sim::CoreConfig::extended(), 4);
  EXPECT_GE(res.makespan, res.compute_cycles);
  EXPECT_LE(res.makespan, res.compute_cycles + res.dma_cycles);
}

TEST(StreamedConv, RejectsBadTiling) {
  const auto data = ConvLayerData::random(small_spec(4), 5);
  EXPECT_THROW(run_conv_streamed(data, ConvVariant::kXpulpNN_HwQ,
                                 sim::CoreConfig::extended(), 5),
               SimError);  // 5 does not divide 16
  EXPECT_THROW(run_conv_streamed(data, ConvVariant::kXpulpNN_HwQ,
                                 sim::CoreConfig::extended(), 0),
               SimError);
}

}  // namespace
}  // namespace xpulp::soc
