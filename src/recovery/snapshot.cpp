#include "recovery/snapshot.hpp"

#include "common/check.hpp"

namespace daop::recovery {
namespace {

// "daopckpt" — 8 ASCII bytes, stable across platforms.
constexpr std::uint8_t kMagic[8] = {'d', 'a', 'o', 'p', 'c', 'k', 'p', 't'};
// Offsets of the header fields end_seal back-patches.
constexpr std::size_t kLenAt = 8 + 4;
constexpr std::size_t kFnvAt = kLenAt + 8;

}  // namespace

std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t n) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

void ByteWriter::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  put(s.data(), s.size());
}

void ByteWriter::patch(std::size_t at, const void* p, std::size_t n) {
  DAOP_CHECK_LE(at + n, buf_.size());
  std::memcpy(buf_.data() + at, p, n);
}

bool ByteReader::take(void* out, std::size_t n) {
  if (!ok_ || n > n_ - pos_) {
    ok_ = false;
    std::memset(out, 0, n);
    return false;
  }
  std::memcpy(out, data_ + pos_, n);
  pos_ += n;
  return true;
}

std::uint8_t ByteReader::u8() {
  std::uint8_t v = 0;
  take(&v, 1);
  return v;
}

std::uint32_t ByteReader::u32() {
  std::uint32_t v = 0;
  take(&v, sizeof(v));
  return v;
}

std::uint64_t ByteReader::u64() {
  std::uint64_t v = 0;
  take(&v, sizeof(v));
  return v;
}

double ByteReader::f64() {
  double v = 0.0;
  take(&v, sizeof(v));
  return v;
}

std::string ByteReader::str() {
  const std::uint32_t n = u32();
  if (!ok_ || n > remaining()) {
    ok_ = false;
    return std::string();
  }
  std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
}

void begin_seal(ByteWriter& w) {
  DAOP_CHECK_EQ(w.size(), 0u);
  w.bytes(kMagic, sizeof(kMagic));
  w.u32(kSnapshotVersion);
  w.u64(0);  // payload length, back-patched by end_seal
  w.u64(0);  // payload checksum, back-patched by end_seal
}

std::vector<std::uint8_t> end_seal(ByteWriter& w) {
  DAOP_CHECK_GE(w.size(), kSealHeaderSize);
  const std::uint8_t* payload = w.data().data() + kSealHeaderSize;
  const std::size_t len = w.size() - kSealHeaderSize;
  w.patch_u64(kLenAt, static_cast<std::uint64_t>(len));
  w.patch_u64(kFnvAt, fnv1a64(payload, len));
  return w.take();
}

std::optional<std::vector<std::uint8_t>> unseal(
    const std::vector<std::uint8_t>& blob) {
  if (blob.size() < kSealHeaderSize) return std::nullopt;
  if (std::memcmp(blob.data(), kMagic, 8) != 0) return std::nullopt;
  ByteReader hdr(blob.data() + 8, kSealHeaderSize - 8);
  const std::uint32_t version = hdr.u32();
  const std::uint64_t len = hdr.u64();
  const std::uint64_t fnv = hdr.u64();
  if (!hdr.ok() || version != kSnapshotVersion) return std::nullopt;
  // Torn write: the frame claims more payload than the blob carries (or a
  // resize appended garbage — the length must match exactly).
  if (len != blob.size() - kSealHeaderSize) return std::nullopt;
  const std::uint8_t* payload = blob.data() + kSealHeaderSize;
  if (fnv1a64(payload, static_cast<std::size_t>(len)) != fnv)
    return std::nullopt;
  return std::vector<std::uint8_t>(payload, payload + len);
}

}  // namespace daop::recovery
