// Crash-consistent snapshot framing for warm-restart recovery (`daop-ckpt/2`).
//
// A checkpoint is a sealed byte blob: a fixed header (magic, version, payload
// length) followed by the payload and guarded by an FNV-1a 64 checksum over
// the payload bytes. The payload itself is produced by
// engines::SequenceSession::checkpoint() — this layer knows nothing about
// sessions; it only provides the deterministic little-endian encoding
// primitives and the seal/unseal validation boundary.
//
// Unsealing is the ONLY trust boundary for restore: torn writes are caught by
// the length field, bit corruption by the checksum (FNV-1a's state update is
// bijective in each input byte, so any single-byte change flips the digest).
// ByteReader is fail-flagged and bounds-checked — decoding an adversarial
// blob can fail, but never read out of bounds.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace daop::recovery {

// `daop-ckpt/2` is little-endian on the wire. ByteWriter and ByteReader
// memcpy fixed-width fields in host byte order, which is that format only
// on a little-endian host: a big-endian build must not compile rather than
// silently write (and accept) a different format.
static_assert(std::endian::native == std::endian::little,
              "daop-ckpt/2 codec assumes a little-endian host");

/// Format revision sealed into every snapshot header ("daop-ckpt/2").
/// unseal() accepts this version only.
inline constexpr std::uint32_t kSnapshotVersion = 2;
/// Sealed frame header: magic, version, payload length, FNV-1a 64.
inline constexpr std::size_t kSealHeaderSize = 8 + 4 + 8 + 8;

/// FNV-1a 64-bit over `n` bytes.
std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t n);

/// Append-only little-endian encoder for snapshot payloads. A length that
/// precedes its section is written as a placeholder and back-patched once
/// the section is done, so a payload is encoded in one pass.
class ByteWriter {
 public:
  void reserve(std::size_t n) { buf_.reserve(n); }
  std::size_t size() const { return buf_.size(); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) { put(&v, sizeof(v)); }
  void u64(std::uint64_t v) { put(&v, sizeof(v)); }
  void i32(std::int32_t v) { put(&v, sizeof(v)); }
  void i64(std::int64_t v) { put(&v, sizeof(v)); }
  void f64(double v) { put(&v, sizeof(v)); }
  void str(std::string_view s);
  void bytes(const std::uint8_t* data, std::size_t n) { put(data, n); }

  /// Overwrites the fixed-width field written at byte offset `at`.
  void patch_u32(std::size_t at, std::uint32_t v) { patch(at, &v, sizeof(v)); }
  void patch_u64(std::size_t at, std::uint64_t v) { patch(at, &v, sizeof(v)); }

  const std::vector<std::uint8_t>& data() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  void put(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }
  void patch(std::size_t at, const void* p, std::size_t n);

  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked decoder. Every read past the end sets the fail flag and
/// returns a zero value; callers check ok() once at the end of a section.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t n) : data_(data), n_(n) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  std::string str();

  bool ok() const { return ok_; }
  std::size_t remaining() const { return n_ - pos_; }

 private:
  bool take(void* out, std::size_t n);

  const std::uint8_t* data_;
  std::size_t n_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Seals a payload into the `daop-ckpt/2` frame (magic, version, payload
/// length, FNV-1a 64 checksum, payload bytes) in place: begin_seal writes
/// the header (length and checksum zeroed) into an empty writer, the caller
/// appends the payload, and end_seal back-patches the length and checksum
/// and hands out the blob without copying it.
void begin_seal(ByteWriter& w);
std::vector<std::uint8_t> end_seal(ByteWriter& w);

/// Validates a sealed blob and returns the payload, or nullopt when the
/// magic/version mismatch, the blob is torn (length inconsistent), or the
/// checksum rejects. Never throws, never reads out of bounds.
std::optional<std::vector<std::uint8_t>> unseal(
    const std::vector<std::uint8_t>& blob);

}  // namespace daop::recovery
