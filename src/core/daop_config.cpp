#include "core/daop_config.hpp"

#include "common/check.hpp"

namespace daop::core {

void validate_config(const DaopConfig& config) {
  DAOP_CHECK_MSG(config.swap_in_out >= 1.0,
                 "DaopConfig.swap_in_out must be >= 1.0 (a CPU expert must "
                 "beat the GPU candidate to justify a swap), got "
                     << config.swap_in_out);
  DAOP_CHECK_MSG(config.min_predict_layer >= 1,
                 "DaopConfig.min_predict_layer must be >= 1 (layer 0 has no "
                 "previous block to predict from), got "
                     << config.min_predict_layer);
  DAOP_CHECK_MSG(config.cpu_quant_bits == 0 || config.cpu_quant_bits == 2 ||
                     config.cpu_quant_bits == 4 || config.cpu_quant_bits == 8,
                 "DaopConfig.cpu_quant_bits must be one of {0, 2, 4, 8}, got "
                     << config.cpu_quant_bits);
  DAOP_CHECK_MSG(config.decode_realloc_interval >= 0,
                 "DaopConfig.decode_realloc_interval must be >= 0 (0 "
                 "disables decode re-allocation), got "
                     << config.decode_realloc_interval);
  DAOP_CHECK_MSG(
      config.skip_top1_margin >= 0.0 && config.skip_top1_margin <= 1.0,
      "DaopConfig.skip_top1_margin must be in [0, 1] (0 disables "
      "skipping), got "
          << config.skip_top1_margin);
  DAOP_CHECK_MSG(config.migration_deadline_factor >= 0.0,
                 "DaopConfig.migration_deadline_factor must be >= 0 (0 "
                 "disables deadline-abort), got "
                     << config.migration_deadline_factor);
  DAOP_CHECK_MSG(config.max_migration_retries >= 0,
                 "DaopConfig.max_migration_retries must be >= 0, got "
                     << config.max_migration_retries);
  DAOP_CHECK_MSG(config.stale_precalc_factor >= 0.0,
                 "DaopConfig.stale_precalc_factor must be >= 0 (0 disables "
                 "stale-result discard), got "
                     << config.stale_precalc_factor);
}

DaopConfig fiddler_config() {
  DaopConfig c;
  c.enable_seq_allocation = false;
  c.enable_precalc = false;
  c.enable_degradation = false;
  return c;
}

std::string engine_name(const DaopConfig& config) {
  const bool alloc = config.enable_seq_allocation;
  const bool precalc = config.enable_precalc;
  const bool degrade = config.enable_degradation;
  if (alloc && precalc && degrade) return "DAOP";
  if (!alloc && !precalc && !degrade) return "Fiddler";
  std::string n = "DAOP[";
  n += alloc ? "alloc," : "-alloc,";
  n += precalc ? "precalc," : "-precalc,";
  n += degrade ? "degrade]" : "-degrade]";
  return n;
}

}  // namespace daop::core
