#include "common/strings.hpp"

#include <cstdio>

namespace daop {

std::string fmt_f(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

std::string fmt_pct(double ratio, int decimals) {
  return fmt_f(ratio * 100.0, decimals) + "%";
}

std::string pad(const std::string& s, std::size_t width, bool left_align) {
  if (s.size() >= width) return s;
  const std::string fill(width - s.size(), ' ');
  return left_align ? s + fill : fill + s;
}

std::string fmt_bytes(double bytes) {
  const char* units[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  int u = 0;
  while (bytes >= 1024.0 && u < 4) {
    bytes /= 1024.0;
    ++u;
  }
  return fmt_f(bytes, 1) + " " + units[u];
}

}  // namespace daop
