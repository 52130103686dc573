// The framed-record codec (sim/io/framed.hpp): the little-endian writer,
// the sticky bounds-checked cursor and its count guard, the frame encoder,
// the never-throwing frame scan, and the shared journal header.
#include "sim/io/framed.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

namespace tracemod::sim::io {
namespace {

TEST(Framed, WriterIsLittleEndianAndPacked) {
  std::string out;
  put<std::uint32_t>(out, 0x04030201u);
  put<std::uint8_t>(out, 0xAB);
  put<std::uint16_t>(out, 0x0605);
  put_str(out, "hi");
  put_str<std::uint16_t>(out, "yo");
  EXPECT_EQ(out, std::string("\x01\x02\x03\x04\xAB\x05\x06"
                             "\x02\x00\x00\x00hi"
                             "\x02\x00yo",
                             17));
}

TEST(Framed, CursorRoundTripsTheWriter) {
  std::string out;
  put<std::int64_t>(out, -42);
  put<double>(out, 0.1);
  put_str(out, "payload");
  Cursor c(out);
  EXPECT_EQ(c.get<std::int64_t>(), -42);
  EXPECT_EQ(c.get<double>(), 0.1);
  EXPECT_EQ(c.get_str(), "payload");
  EXPECT_TRUE(c.done());
}

TEST(Framed, CursorFailureIsStickyAndKeepsItsOffset) {
  const std::string bytes("\x01\x02\x03\x04\x05", 5);
  Cursor c(bytes);
  EXPECT_EQ(c.get<std::uint32_t>(), 0x04030201u);
  EXPECT_EQ(c.get<std::uint16_t>(), 0u);  // one byte short
  EXPECT_FALSE(c.ok());
  EXPECT_EQ(c.pos(), 4u);
  // A later read that would fit still yields zero and does not move.
  EXPECT_EQ(c.get<std::uint8_t>(), 0u);
  EXPECT_EQ(c.pos(), 4u);
  EXPECT_FALSE(c.done());

  // A decoder's own fail() behaves the same way.
  Cursor rejected(bytes);
  EXPECT_EQ(rejected.get<std::uint8_t>(), 1u);
  rejected.fail();
  EXPECT_EQ(rejected.get<std::uint8_t>(), 0u);
  EXPECT_EQ(rejected.pos(), 1u);
}

TEST(Framed, StringLengthBeyondTheSpanFails) {
  std::string bytes;
  put<std::uint32_t>(bytes, 0xFFFFFFFFu);
  bytes += "abc";
  Cursor c(bytes);
  EXPECT_EQ(c.get_str(), "");
  EXPECT_FALSE(c.ok());
  EXPECT_EQ(c.pos(), 4u);
}

TEST(Framed, NeedItemsIsOverflowSafe) {
  const std::string bytes(24, '\0');
  Cursor fits(bytes);
  EXPECT_TRUE(fits.need_items(3, 8));
  Cursor over(bytes);
  EXPECT_FALSE(over.need_items(4, 8));
  EXPECT_FALSE(over.ok());
  // count * item_bytes would wrap to a small number.
  Cursor wrap(bytes);
  EXPECT_FALSE(wrap.need_items(std::numeric_limits<std::uint64_t>::max(), 16));
}

TEST(Framed, FrameLayoutIsTypeLengthCrcPayload) {
  std::string frame;
  append_frame(frame, 7, "abc");
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + 3);
  EXPECT_EQ(frame[0], '\x07');
  EXPECT_EQ(frame.substr(1, 4), std::string("\x03\x00\x00\x00", 4));
  // The CRC covers the type byte followed by the payload.
  std::string want_crc;
  put(want_crc, crc32c("\x07" "abc", 4));
  EXPECT_EQ(frame.substr(5, 4), want_crc);
  EXPECT_EQ(frame.substr(9), "abc");

  // The in-place form writes the same bytes.
  std::string in_place = "prefix";
  const std::size_t start = begin_frame(in_place, 7);
  in_place += "abc";
  end_frame(in_place, start);
  EXPECT_EQ(in_place, "prefix" + frame);
}

TEST(Framed, ScanClassifiesEveryFrameState) {
  std::string bytes = "hdr";
  append_frame(bytes, 2, "hello");
  append_frame(bytes, 3, "");

  ScannedFrame f = scan_frame(bytes, 3, 64);
  ASSERT_EQ(f.status, FrameScan::kOk);
  EXPECT_EQ(f.type, 2);
  EXPECT_EQ(f.length, 5u);
  EXPECT_EQ(f.payload, "hello");
  EXPECT_EQ(f.next, 3 + kFrameHeaderBytes + 5);
  f = scan_frame(bytes, f.next, 64);
  ASSERT_EQ(f.status, FrameScan::kOk);
  EXPECT_EQ(f.next, bytes.size());
  EXPECT_EQ(scan_frame(bytes, bytes.size(), 64).status, FrameScan::kTornTail);

  // Every cut inside the first frame is a torn tail.
  for (std::size_t cut = 3; cut < 3 + kFrameHeaderBytes + 5; ++cut) {
    EXPECT_EQ(scan_frame(std::string_view(bytes).substr(0, cut), 3, 64).status,
              FrameScan::kTornTail)
        << "cut " << cut;
  }
  // A length over the format's bound is implausible before it is torn.
  EXPECT_EQ(scan_frame(bytes, 3, 4).status, FrameScan::kImplausibleLength);

  std::string flipped = bytes;
  flipped[3 + kFrameHeaderBytes + 1] ^= 0x20;  // payload byte
  f = scan_frame(flipped, 3, 64);
  EXPECT_EQ(f.status, FrameScan::kCrcMismatch);
  EXPECT_EQ(f.next, 3 + kFrameHeaderBytes + 5);  // still skippable
  flipped = bytes;
  flipped[3] ^= 0x01;  // type byte
  EXPECT_EQ(scan_frame(flipped, 3, 64).status, FrameScan::kCrcMismatch);
}

TEST(Framed, JournalHeaderRoundTripsAndRejectsForeignBytes) {
  static constexpr char kMagic[4] = {'T', 'E', 'S', 'T'};
  static constexpr char kOther[4] = {'T', 'M', 'S', 'J'};
  const std::string header = journal_header(kMagic, 3, 0xDEADBEEFu);
  ASSERT_EQ(header.size(), kJournalHeaderBytes);
  EXPECT_EQ(header, std::string("TEST\x03\x00\xEF\xBE\xAD\xDE", 10));
  const auto h = read_journal_header(header, kMagic);
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->version, 3);
  EXPECT_EQ(h->fingerprint, 0xDEADBEEFu);
  EXPECT_FALSE(read_journal_header(header, kOther).has_value());
  EXPECT_FALSE(read_journal_header(header.substr(0, 9), kMagic).has_value());
}

}  // namespace
}  // namespace tracemod::sim::io
