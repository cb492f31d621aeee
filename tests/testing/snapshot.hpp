// Test-side snapshot helpers built on the public recovery API: framing an
// arbitrary payload, and decoding a sealed blob without a session.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "engines/session.hpp"
#include "recovery/snapshot.hpp"

namespace daop::testing {

/// Wraps `payload` in the `daop-ckpt/2` frame.
inline std::vector<std::uint8_t> seal(
    const std::vector<std::uint8_t>& payload) {
  recovery::ByteWriter w;
  recovery::begin_seal(w);
  w.bytes(payload.data(), payload.size());
  return recovery::end_seal(w);
}

/// unseal() then SequenceSession::decode(): every check a restore() makes
/// before it compares the snapshot with a live session. nullopt when either
/// rejects.
inline std::optional<engines::SessionSnapshot> peek(
    const std::vector<std::uint8_t>& sealed) {
  std::optional<std::vector<std::uint8_t>> payload = recovery::unseal(sealed);
  if (!payload.has_value()) return std::nullopt;
  return engines::SequenceSession::decode(std::move(*payload));
}

}  // namespace daop::testing
