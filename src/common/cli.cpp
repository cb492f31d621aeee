#include "common/cli.hpp"

#include <cerrno>
#include <cstdlib>
#include <limits>

#include "common/check.hpp"

namespace daop {

FlagParser::FlagParser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      arg = arg.substr(2);
      DAOP_CHECK_MSG(!arg.empty(), "bare '--' is not a flag");
      const auto eq = arg.find('=');
      std::string name;
      std::string value;
      if (eq != std::string::npos) {
        name = arg.substr(0, eq);
        value = arg.substr(eq + 1);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        name = arg;
        value = argv[++i];
      } else {
        name = arg;
        value = "true";  // boolean flag
      }
      DAOP_CHECK_MSG(flags_.find(name) == flags_.end(),
                     "duplicate flag --" << name);
      flags_[name] = value;
    } else if (command_.empty()) {
      command_ = arg;
    } else {
      positional_.push_back(arg);
    }
  }
}

bool FlagParser::has(const std::string& name) const {
  const bool present = flags_.count(name) != 0;
  if (present) used_[name] = true;
  return present;
}

std::string FlagParser::get(const std::string& name,
                            const std::string& def) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  used_[name] = true;
  return it->second;
}

int FlagParser::get_int(const std::string& name, int def) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  used_[name] = true;
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(it->second.c_str(), &end, 10);
  // Out-of-range text (strtol's ERANGE, or a long that int cannot hold) is
  // rejected rather than silently wrapped.
  DAOP_CHECK_MSG(end && *end == '\0' && !it->second.empty() &&
                     errno != ERANGE &&
                     v >= std::numeric_limits<int>::min() &&
                     v <= std::numeric_limits<int>::max(),
                 "--" << name << " expects an integer, got '" << it->second
                      << "'");
  return static_cast<int>(v);
}

double FlagParser::get_double(const std::string& name, double def) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  used_[name] = true;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  DAOP_CHECK_MSG(end && *end == '\0' && !it->second.empty(),
                 "--" << name << " expects a number, got '" << it->second
                      << "'");
  return v;
}

bool FlagParser::get_bool(const std::string& name, bool def) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  used_[name] = true;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  DAOP_CHECK_MSG(false, "--" << name << " expects a boolean, got '" << v << "'");
  return def;
}

std::vector<std::string> FlagParser::unused() const {
  std::vector<std::string> out;
  for (const auto& [name, value] : flags_) {
    if (used_.find(name) == used_.end()) out.push_back(name);
  }
  return out;
}

const std::vector<std::string>& cli_output_modes() {
  static const std::vector<std::string> modes{
      "speed", "compare", "serve", "serve-cluster", "timeline"};
  return modes;
}

const std::vector<CliOutputFlagSpec>& cli_output_flag_matrix() {
  static const std::vector<CliOutputFlagSpec> matrix{
      {"metrics-out", {"metrics-format"}, cli_output_modes()},
      {"profile-out", {"profile-format"}, cli_output_modes()},
      {"tseries-out",
       {"tseries-format", "tseries-window", "slo-rules"},
       cli_output_modes()},
  };
  return matrix;
}

bool cli_output_flag_supported(const std::string& flag,
                               const std::string& mode) {
  for (const CliOutputFlagSpec& spec : cli_output_flag_matrix()) {
    if (spec.flag != flag) continue;
    for (const std::string& m : spec.modes) {
      if (m == mode) return true;
    }
    return false;
  }
  return false;
}

}  // namespace daop
