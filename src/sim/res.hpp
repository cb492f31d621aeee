// Hardware resources of the performance simulator: the lanes a
// sim::Timeline serializes work on and a sim::FaultModel perturbs.
#pragma once

namespace daop::sim {

/// Hardware resources that serialize work.
enum class Res : int {
  GpuStream = 0,  ///< GPU compute stream
  CpuPool,        ///< CPU worker pool (experts share memory bandwidth, so
                  ///< concurrent CPU experts serialize — conservative and
                  ///< accurate for memory-bound decode GEMV)
  PcieH2D,        ///< host-to-device DMA engine
  PcieD2H,        ///< device-to-host DMA engine
};

inline constexpr int kNumRes = 4;

const char* res_name(Res r);

}  // namespace daop::sim
