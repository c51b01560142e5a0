// Byte-level primitives shared by every durable/wire format: little-endian
// field writer/reader (the same primitives the message codec uses) and a
// length-prefixed, checksummed frame container.
//
// A frame is the unit of torn-write detection in the WAL and the snapshot
// store: `u32 body_len | u64 checksum(body) | body`. A reader either gets a
// fully-verified body back or learns exactly where the valid prefix ends —
// there is no way to observe a partially-written or corrupted record.
//
// The checksum is FNV-1a/64 finished through mix64. It is not cryptographic
// (integrity against crash-torn writes and bit rot, not against forgery —
// authenticity of durable state comes from the checkpoint certificates the
// snapshot carries).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace mewc::wire {

/// Little-endian field writer over a growable byte buffer.
class Writer {
 public:
  Writer() = default;
  /// Adopts `reuse`'s storage (cleared) so a caller encoding in a loop can
  /// recycle one buffer across iterations instead of allocating per
  /// message; take() hands the storage back.
  explicit Writer(std::vector<std::uint8_t> reuse) : buf_(std::move(reuse)) {
    buf_.clear();
  }
  /// Adopts `buf` with its contents kept: new fields append after them.
  /// Lets a caller rewrite the tail of an existing encoding in place.
  [[nodiscard]] static Writer appending(std::vector<std::uint8_t> buf) {
    Writer w;
    w.buf_ = std::move(buf);
    return w;
  }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back((v >> (8 * i)) & 0xff);
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back((v >> (8 * i)) & 0xff);
  }
  void boolean(bool v) { u8(v ? 1 : 0); }

  /// Bytes written so far — pair with patch_u32 for length-prefixed nesting.
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

  /// Everything written so far.
  [[nodiscard]] std::span<const std::uint8_t> bytes() const { return buf_; }

  /// Overwrites a previously written u32 in place (little-endian). Lets a
  /// caller emit a placeholder length, encode a nested payload directly into
  /// this buffer, then fix the prefix up — no temporary allocation.
  void patch_u32(std::size_t offset, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_[offset + i] = (v >> (8 * i)) & 0xff;
  }

  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Little-endian field reader; sticky-fails on any overrun so callers can
/// batch reads and check ok()/done() once.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] bool done() const { return ok_ && pos_ == bytes_.size(); }

  std::uint8_t u8() {
    if (!need(1)) return 0;
    return bytes_[pos_++];
  }
  std::uint32_t u32() {
    if (!need(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{bytes_[pos_++]} << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    if (!need(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{bytes_[pos_++]} << (8 * i);
    return v;
  }
  bool boolean() {
    const std::uint8_t v = u8();
    if (v > 1) ok_ = false;  // canonical booleans only
    return v == 1;
  }

  /// Consumes `len` raw bytes (for nested encodings).
  std::span<const std::uint8_t> take_bytes(std::uint32_t len) {
    if (!need(len)) return {};
    const auto out = bytes_.subspan(pos_, len);
    pos_ += len;
    return out;
  }

 private:
  bool need(std::size_t k) {
    if (!ok_ || bytes_.size() - pos_ < k) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Deterministic 64-bit content checksum (FNV-1a finished through mix64).
[[nodiscard]] std::uint64_t checksum(std::span<const std::uint8_t> bytes);

/// checksum() computed piecewise: update() over consecutive pieces, then
/// finish(). Any split of a buffer gives checksum() of the whole, so a
/// caller that only appends can keep the state over an unchanging prefix
/// and hash just the new bytes. finish() leaves the state untouched.
class Checksum {
 public:
  void update(std::span<const std::uint8_t> bytes);
  [[nodiscard]] std::uint64_t finish() const;

 private:
  std::uint64_t h_ = 14695981039346656037ull;  // FNV-1a/64 offset basis
  std::uint64_t len_ = 0;
};

/// Frame header size: u32 body length + u64 body checksum.
inline constexpr std::size_t kFrameHeader = 4 + 8;
/// Frames larger than this are rejected as corrupt (a torn length prefix
/// must not make the reader chase gigabytes of garbage).
inline constexpr std::uint32_t kMaxFrameBody = 1u << 28;

/// Appends one frame (header + body) to `out`.
void append_frame(std::vector<std::uint8_t>& out,
                  std::span<const std::uint8_t> body);

/// Writes a frame header into the first kFrameHeader bytes of `header`,
/// for a frame whose body the caller built in place behind it (and whose
/// checksum it streamed through Checksum).
void put_frame_header(std::span<std::uint8_t> header, std::uint32_t body_len,
                      std::uint64_t body_checksum);

/// One verified frame: the body view plus the total on-disk footprint.
struct FrameView {
  std::span<const std::uint8_t> body;
  std::size_t frame_size = 0;  // kFrameHeader + body.size()
};

/// Parses the frame starting at `offset`. Returns nullopt when the bytes
/// from `offset` do not hold one complete, checksum-valid frame (truncated
/// header, truncated body, oversized length, or checksum mismatch) — the
/// caller treats `offset` as the end of the valid prefix.
[[nodiscard]] std::optional<FrameView> read_frame(
    std::span<const std::uint8_t> bytes, std::size_t offset);

}  // namespace mewc::wire
