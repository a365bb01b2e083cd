// Row-partitioned parallel convolution on the cluster: each core runs the
// PULP-NN kernel over a disjoint slice of output rows, with a private
// im2col buffer slot; input, weights, thresholds, and the output tensor
// live once in the shared TCDM, loaded and read back through the shared
// layer image (kernels::load_conv_data / read_conv_output). Every variant
// runs, mixed-precision layers (grouped weights) included.
#pragma once

#include <functional>
#include <vector>

#include "cluster/cluster.hpp"
#include "kernels/conv_layer.hpp"

namespace xpulp::cluster {

struct ParallelConvResult {
  qnn::Tensor output;
  ClusterStats stats;
  u64 macs = 0;

  double macs_per_cycle() const {
    return stats.makespan ? static_cast<double>(macs) /
                                static_cast<double>(stats.makespan)
                          : 0.0;
  }
};

/// Observability hook: `instrument` is invoked after the programs are
/// loaded and the cores reset, immediately before the cluster runs.
/// kernels[i] is core i's generated kernel (with its region map); attach
/// per-core profilers or trace hooks through cluster.core(i). `after_run`
/// fires right after the run completes, while the cluster and its cores
/// are still alive — finalize profilers there, NOT after the call returns
/// (the cluster is destroyed with the stack frame).
using ClusterInstrument = std::function<void(
    Cluster&, const std::vector<kernels::ConvKernel>& kernels)>;

/// Generate the per-core programs for a row-partitioned layer: core c's
/// code at c * 16 kB, shared tensors planned from 0x40000, rows split in
/// contiguous slices (remainder rows to the first cores), one private
/// im2col buffer slot per core. run_parallel_conv, the xrace kernel sweep,
/// and the tests all plan through here so they analyze exactly the
/// programs that run. `base` seeds non-partitioning generator knobs
/// (pixel_block, use_hwloops, ...); its partitioning fields are
/// overwritten per core.
std::vector<kernels::ConvKernel> make_parallel_conv_kernels(
    const qnn::ConvSpec& spec, kernels::ConvVariant v, int num_cores,
    const kernels::ConvGenOptions& base = {});

/// Run the layer across `cfg.num_cores` cores. Rows are distributed in
/// contiguous slices (remainder rows go to the first cores). Output is
/// read back from shared memory and must be checked by the caller against
/// ConvLayerData::golden().
ParallelConvResult run_parallel_conv(const kernels::ConvLayerData& data,
                                     kernels::ConvVariant v,
                                     const ClusterConfig& cfg,
                                     const ClusterInstrument& instrument = {},
                                     const ClusterInstrument& after_run = {});

}  // namespace xpulp::cluster
