#include "wire/frame.hpp"

#include "common/hash.hpp"

namespace mewc::wire {

void Checksum::update(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = h_;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  h_ = h;
  len_ += bytes.size();
}

std::uint64_t Checksum::finish() const {
  // FNV-1a/64 over the body, finished through mix64 (with the length) so
  // short bodies still spread across all 64 bits.
  return mix64(h_ ^ (std::uint64_t{0x66726d} << 32 | len_));
}

std::uint64_t checksum(std::span<const std::uint8_t> bytes) {
  Checksum sum;
  sum.update(bytes);
  return sum.finish();
}

void put_frame_header(std::span<std::uint8_t> header, std::uint32_t body_len,
                      std::uint64_t body_checksum) {
  for (std::size_t i = 0; i < 4; ++i) header[i] = (body_len >> (8 * i)) & 0xff;
  for (std::size_t i = 0; i < 8; ++i) {
    header[4 + i] = (body_checksum >> (8 * i)) & 0xff;
  }
}

void append_frame(std::vector<std::uint8_t>& out,
                  std::span<const std::uint8_t> body) {
  const std::size_t at = out.size();
  out.resize(at + kFrameHeader);
  put_frame_header(std::span(out).subspan(at),
                   static_cast<std::uint32_t>(body.size()), checksum(body));
  out.insert(out.end(), body.begin(), body.end());
}

std::optional<FrameView> read_frame(std::span<const std::uint8_t> bytes,
                                    std::size_t offset) {
  if (offset > bytes.size() || bytes.size() - offset < kFrameHeader) {
    return std::nullopt;
  }
  Reader r(bytes.subspan(offset, kFrameHeader));
  const std::uint32_t len = r.u32();
  const std::uint64_t sum = r.u64();
  if (!r.done() || len > kMaxFrameBody) return std::nullopt;
  if (bytes.size() - offset - kFrameHeader < len) return std::nullopt;
  const auto body = bytes.subspan(offset + kFrameHeader, len);
  if (checksum(body) != sum) return std::nullopt;
  return FrameView{body, kFrameHeader + len};
}

}  // namespace mewc::wire
