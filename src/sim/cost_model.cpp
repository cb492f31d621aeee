#include "sim/cost_model.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace daop::sim {

CostModel::CostModel(PlatformSpec platform) : platform_(std::move(platform)) {
  DAOP_CHECK_GT(platform_.gpu.flops(), 0.0);
  DAOP_CHECK_GT(platform_.gpu.mem_bw(), 0.0);
  DAOP_CHECK_GT(platform_.cpu.flops(), 0.0);
  DAOP_CHECK_GT(platform_.cpu.mem_bw(), 0.0);
  DAOP_CHECK_GT(platform_.pcie_h2d.bw(), 0.0);
  DAOP_CHECK_GT(platform_.pcie_d2h.bw(), 0.0);
}

double CostModel::dense_op_time(const DeviceSpec& dev, double flops,
                                double bytes, int n_kernels) const {
  DAOP_CHECK_GE(flops, 0.0);
  DAOP_CHECK_GE(bytes, 0.0);
  DAOP_CHECK_GE(n_kernels, 0);
  const double compute = flops / dev.flops();
  const double memory = bytes / dev.mem_bw();
  return std::max(compute, memory) + n_kernels * dev.kernel_overhead_s;
}

double CostModel::h2d_time(double bytes) const {
  DAOP_CHECK_GE(bytes, 0.0);
  return platform_.pcie_h2d.latency_s + bytes / platform_.pcie_h2d.bw();
}

double CostModel::d2h_time(double bytes) const {
  DAOP_CHECK_GE(bytes, 0.0);
  return platform_.pcie_d2h.latency_s + bytes / platform_.pcie_d2h.bw();
}

}  // namespace daop::sim
