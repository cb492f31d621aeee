#include "sim/cost_model.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "sim/device.hpp"

namespace daop::sim {
namespace {

TEST(CostModel, ComputeBoundVsMemoryBound) {
  DeviceSpec dev;
  dev.flops_peak = 100.0;  // 100 flop/s
  dev.flops_efficiency = 1.0;
  dev.mem_bw_bytes_per_s = 10.0;  // 10 B/s
  dev.mem_bw_efficiency = 1.0;
  dev.kernel_overhead_s = 0.0;
  PlatformSpec p = a6000_i9_platform();
  const CostModel cm(p);

  // compute-bound: 1000 flops, 1 byte -> 10 s on the toy device
  EXPECT_DOUBLE_EQ(cm.dense_op_time(dev, 1000.0, 1.0), 10.0);
  // memory-bound: 1 flop, 1000 bytes -> 100 s
  EXPECT_DOUBLE_EQ(cm.dense_op_time(dev, 1.0, 1000.0), 100.0);
}

TEST(CostModel, KernelOverheadAdds) {
  PlatformSpec p = a6000_i9_platform();
  const CostModel cm(p);
  const double base = cm.dense_op_time(p.gpu, 0.0, 0.0, 0);
  const double with4 = cm.dense_op_time(p.gpu, 0.0, 0.0, 4);
  EXPECT_DOUBLE_EQ(base, 0.0);
  EXPECT_DOUBLE_EQ(with4, 4.0 * p.gpu.kernel_overhead_s);
}

TEST(CostModel, TransferIncludesLatency) {
  PlatformSpec p = a6000_i9_platform();
  const CostModel cm(p);
  EXPECT_DOUBLE_EQ(cm.h2d_time(0.0), p.pcie_h2d.latency_s);
  const double big = cm.h2d_time(1e9);
  EXPECT_NEAR(big, p.pcie_h2d.latency_s + 1e9 / p.pcie_h2d.bw(), 1e-12);
}

TEST(CostModel, TimeMonotoneInWork) {
  const PlatformSpec p = a6000_i9_platform();
  const CostModel cm(p);
  EXPECT_LE(cm.dense_op_time(p.gpu, 1e9, 1e6),
            cm.dense_op_time(p.gpu, 2e9, 1e6));
  EXPECT_LE(cm.dense_op_time(p.gpu, 1e9, 1e6),
            cm.dense_op_time(p.gpu, 1e9, 2e6));
  EXPECT_LE(cm.h2d_time(1e6), cm.h2d_time(2e6));
}

TEST(CostModel, GpuFasterThanCpuOnPresets) {
  for (const auto& p : {a6000_i9_platform(), a100_xeon_platform(),
                        rtx4090_desktop_platform(), laptop_platform()}) {
    const CostModel cm(p);
    // Same large op must be faster on the GPU (paper §VI-A assumption 2).
    EXPECT_LT(cm.dense_op_time(p.gpu, 1e12, 1e9),
              cm.dense_op_time(p.cpu, 1e12, 1e9))
        << p.name;
  }
}

TEST(CostModel, RejectsNegativeWork) {
  const PlatformSpec p = a6000_i9_platform();
  const CostModel cm(p);
  EXPECT_THROW(cm.dense_op_time(p.gpu, -1.0, 0.0), CheckError);
  EXPECT_THROW(cm.h2d_time(-1.0), CheckError);
}

TEST(CostModel, PresetsAreInternallyConsistent) {
  for (const auto& p : {a6000_i9_platform(), a100_xeon_platform(),
                        rtx4090_desktop_platform(), laptop_platform()}) {
    EXPECT_GT(p.gpu.flops(), p.cpu.flops()) << p.name;
    EXPECT_GT(p.gpu.mem_bw(), p.cpu.mem_bw()) << p.name;
    EXPECT_GT(p.gpu.active_power_w, p.gpu.idle_power_w) << p.name;
    EXPECT_GT(p.cpu.active_power_w, p.cpu.idle_power_w) << p.name;
    EXPECT_GT(p.cpu.mem_capacity_bytes, p.gpu.mem_capacity_bytes) << p.name;
    // PCIe effective bandwidth below CPU memory bandwidth (assumption 3's
    // precondition: transfers are the slow path).
    EXPECT_LT(p.pcie_h2d.bw(), p.cpu.mem_bw()) << p.name;
  }
}

}  // namespace
}  // namespace daop::sim
