// Roofline cost model: maps (flops, bytes) of an op onto a device, and
// transfer sizes onto a link.
#pragma once

#include "sim/device.hpp"

namespace daop::sim {

/// Cost model over one platform. All returned times are seconds.
class CostModel {
 public:
  explicit CostModel(PlatformSpec platform);

  const PlatformSpec& platform() const { return platform_; }

  /// Time for a dense op: max(compute roofline, memory roofline) plus
  /// `n_kernels` dispatch overheads. `bytes` is total weight+activation
  /// traffic (for decode GEMV this is dominated by the weight read).
  double dense_op_time(const DeviceSpec& dev, double flops, double bytes,
                       int n_kernels = 1) const;

  /// Host-to-device transfer time for `bytes`.
  double h2d_time(double bytes) const;
  /// Device-to-host transfer time for `bytes`.
  double d2h_time(double bytes) const;

 private:
  PlatformSpec platform_;
};

}  // namespace daop::sim
