// Frame container: the torn-write detection unit every durable format
// (WAL records, snapshot blobs) is built on. A reader either gets a fully
// verified body back or learns exactly where the valid prefix ends; no
// truncation or single-byte corruption may ever surface a partial body.
#include "wire/frame.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace mewc::wire {
namespace {

std::vector<std::uint8_t> body_of(std::initializer_list<int> bytes) {
  std::vector<std::uint8_t> out;
  for (int b : bytes) out.push_back(static_cast<std::uint8_t>(b));
  return out;
}

TEST(WireReaderWriter, FieldsRoundTripLittleEndian) {
  Writer w;
  w.u8(0xab);
  w.u32(0x01020304);
  w.u64(0x1122334455667788ull);
  w.boolean(true);
  w.boolean(false);
  const std::vector<std::uint8_t> bytes = w.take();
  // Little-endian layout is part of the durable format, so pin it.
  ASSERT_EQ(bytes.size(), 1u + 4 + 8 + 2);
  EXPECT_EQ(bytes[0], 0xab);
  EXPECT_EQ(bytes[1], 0x04);
  EXPECT_EQ(bytes[4], 0x01);
  EXPECT_EQ(bytes[5], 0x88);
  EXPECT_EQ(bytes[12], 0x11);

  Reader r(bytes);
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 0x01020304u);
  EXPECT_EQ(r.u64(), 0x1122334455667788ull);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.done());
}

TEST(WireReaderWriter, OverrunStickyFails) {
  Writer w;
  w.u32(7);
  const auto bytes = w.take();
  Reader r(bytes);
  (void)r.u32();
  (void)r.u8();  // past the end
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.done());
  EXPECT_EQ(r.u64(), 0u);  // still failed, still safe
}

TEST(WireReaderWriter, NonCanonicalBooleanRejected) {
  const auto bytes = body_of({2});
  Reader r(bytes);
  (void)r.boolean();
  EXPECT_FALSE(r.ok());
}

TEST(WireChecksum, DeterministicAndContentSensitive) {
  const auto a = body_of({1, 2, 3});
  const auto b = body_of({1, 2, 4});
  const auto empty = body_of({});
  EXPECT_EQ(checksum(a), checksum(a));
  EXPECT_NE(checksum(a), checksum(b));
  // Length is mixed in, so a prefix never collides with the whole.
  const auto prefix = body_of({1, 2});
  EXPECT_NE(checksum(a), checksum(prefix));
  EXPECT_NE(checksum(empty), checksum(a));
}

TEST(WireChecksum, StreamingEqualsOneShotForEverySplit) {
  std::vector<std::uint8_t> buf;
  for (int i = 0; i < 97; ++i) {
    buf.push_back(static_cast<std::uint8_t>(i * 37 + 11));
  }
  const std::span<const std::uint8_t> all(buf);
  EXPECT_EQ(Checksum().finish(), checksum({}));
  for (std::size_t a = 0; a <= buf.size(); ++a) {
    // Two pieces at every split point.
    Checksum two;
    two.update(all.first(a));
    two.update(all.subspan(a));
    EXPECT_EQ(two.finish(), checksum(all)) << "split " << a;
    // Three pieces, the middle one possibly empty; finish() mid-stream
    // must not disturb the state (the snapshot writer finishes a copy).
    for (std::size_t b = a; b <= buf.size(); b += 7) {
      Checksum three;
      three.update(all.first(a));
      EXPECT_EQ(three.finish(), checksum(all.first(a)));
      three.update(all.subspan(a, b - a));
      three.update(all.subspan(b));
      EXPECT_EQ(three.finish(), checksum(all)) << "splits " << a << "," << b;
    }
  }
}

TEST(WireFrame, HeaderWrittenInPlaceMatchesAppendFrame) {
  const auto body = body_of({5, 6, 7, 8, 9});
  std::vector<std::uint8_t> framed;
  append_frame(framed, body);
  std::vector<std::uint8_t> in_place(kFrameHeader);
  in_place.insert(in_place.end(), body.begin(), body.end());
  put_frame_header(in_place, static_cast<std::uint32_t>(body.size()),
                   checksum(body));
  EXPECT_EQ(in_place, framed);
}

TEST(WireFrame, RoundTripsBodies) {
  std::vector<std::uint8_t> log;
  const auto first = body_of({10, 20, 30});
  const auto second = body_of({});  // empty bodies are legal frames
  append_frame(log, first);
  append_frame(log, second);

  const auto f1 = read_frame(log, 0);
  ASSERT_TRUE(f1.has_value());
  EXPECT_EQ(std::vector<std::uint8_t>(f1->body.begin(), f1->body.end()),
            first);
  EXPECT_EQ(f1->frame_size, kFrameHeader + first.size());

  const auto f2 = read_frame(log, f1->frame_size);
  ASSERT_TRUE(f2.has_value());
  EXPECT_TRUE(f2->body.empty());
  EXPECT_EQ(f1->frame_size + f2->frame_size, log.size());

  EXPECT_FALSE(read_frame(log, log.size()).has_value());  // clean end
}

TEST(WireFrame, EveryTruncationIsDetected) {
  std::vector<std::uint8_t> log;
  append_frame(log, body_of({1, 2, 3, 4, 5, 6, 7}));
  // No proper prefix of a frame may parse as a frame.
  for (std::size_t len = 0; len < log.size(); ++len) {
    const std::span<const std::uint8_t> torn(log.data(), len);
    EXPECT_FALSE(read_frame(torn, 0).has_value()) << "prefix length " << len;
  }
}

TEST(WireFrame, EverySingleByteCorruptionIsDetected) {
  std::vector<std::uint8_t> log;
  append_frame(log, body_of({9, 8, 7, 6, 5}));
  for (std::size_t i = 0; i < log.size(); ++i) {
    std::vector<std::uint8_t> bad = log;
    bad[i] ^= 0x5a;
    const auto frame = read_frame(bad, 0);
    // A flipped length makes the frame run past the buffer or cover the
    // wrong span; a flipped checksum/body byte fails verification. Either
    // way the corrupted frame must not be surfaced.
    EXPECT_FALSE(frame.has_value()) << "corrupt byte " << i;
  }
}

TEST(WireFrame, OversizedLengthRejectedWithoutReading) {
  // Hand-build a header claiming a body far past kMaxFrameBody: the reader
  // must reject it instead of chasing garbage.
  Writer w;
  w.u32(kMaxFrameBody + 1);
  w.u64(0);
  const auto bytes = w.take();
  EXPECT_FALSE(read_frame(bytes, 0).has_value());
}

}  // namespace
}  // namespace mewc::wire
