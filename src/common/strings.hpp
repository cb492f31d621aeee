// Small string/number formatting helpers (GCC 12 lacks <format>).
#pragma once

#include <string>
#include <vector>

namespace daop {

/// Formats a double with `decimals` fractional digits (printf "%.*f").
std::string fmt_f(double v, int decimals = 2);

/// Formats a ratio as a percentage string, e.g. 0.469 -> "46.9%".
std::string fmt_pct(double ratio, int decimals = 1);

/// Left-pads/truncates to a fixed width (for plain-text tables).
std::string pad(const std::string& s, std::size_t width, bool left_align = true);

/// Human-readable byte count, e.g. "352.0 MiB".
std::string fmt_bytes(double bytes);

}  // namespace daop
