// serve/wire.hpp: message encode/parse round trips, golden frame bytes,
// and fuzz-ish corruption over the serve protocol's frames (truncation,
// bit flips, bad version, short payloads).

#include "serve/wire.hpp"

#include <gtest/gtest.h>

#include <string>

namespace pmrl {
namespace {

using serve::MsgType;

util::Frame decode_one(const std::string& bytes) {
  std::size_t offset = 0;
  util::Frame frame;
  EXPECT_EQ(util::decode_frame(bytes, offset, frame), util::FrameStatus::Ok);
  EXPECT_EQ(offset, bytes.size());
  return frame;
}

std::string hex(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

// Every encoder's frame, byte for byte. A round trip cannot see a layout
// drift that the encoder and decoder share; these bytes are what peers
// built from earlier revisions send and expect.
TEST(ServeWire, EncodersEmitGoldenBytes) {
  const auto frame = [](auto&& encode) {
    std::string out;
    encode(out);
    return hex(out);
  };
  EXPECT_EQ(frame([](std::string& o) {
              serve::append_query(o, {0x1122334455667788ull, 3, 1023});
            }),
            "504d5246010100001400000090d4c368"
            "887766554433221103000000ff03000000000000");
  EXPECT_EQ(frame([](std::string& o) {
              serve::append_response(o, {42, 7, 5});
            }),
            "504d52460102000010000000b1ef23f1"
            "2a000000000000000700000005000000");
  EXPECT_EQ(frame([](std::string& o) {
              serve::append_ping(o, 0x0123456789abcdefull);
            }),
            "504d524601030000080000006dfbbb74efcdab8967452301");
  EXPECT_EQ(frame([](std::string& o) {
              serve::append_pong(o, 0xfedcba9876543210ull);
            }),
            "504d5246010400000800000002f4dcab1032547698badcfe");
  EXPECT_EQ(frame([](std::string& o) { serve::append_reload(o); }),
            "504d5246010500000000000050f0b0fb");
  EXPECT_EQ(frame([](std::string& o) {
              serve::append_reload_ack(o, {false, "bad crc"});
            }),
            "504d52460106000008000000a7d907f60062616420637263");
  EXPECT_EQ(frame([](std::string& o) {
              serve::append_error(o, {9, 3, "state index out of range"});
            }),
            "504d52460107000024000000c9cf43d6090000000000000003000000"
            "737461746520696e646578206f7574206f662072616e6765");
  EXPECT_EQ(frame([](std::string& o) {
              serve::append_report(o, {0x0102030405060708ull, 1.5, -0.25});
            }),
            "504d524601080000180000005e334595"
            "0807060504030201000000000000f83f000000000000d0bf");
  EXPECT_EQ(frame([](std::string& o) {
              serve::append_report_ack(o, {77, true, 2});
            }),
            "504d5246010900000a00000097fb99a74d000000000000000102");
}

TEST(ServeWire, QueryRoundTrips) {
  std::string bytes;
  serve::append_query(bytes,
                      serve::QueryMsg{0x1122334455667788ull, 3, 1023});
  const util::Frame frame = decode_one(bytes);
  EXPECT_EQ(static_cast<MsgType>(frame.type), MsgType::Query);
  serve::QueryMsg query;
  ASSERT_TRUE(serve::parse_query(frame, query));
  EXPECT_EQ(query.request_id, 0x1122334455667788ull);
  EXPECT_EQ(query.agent, 3u);
  EXPECT_EQ(query.state, 1023u);
}

TEST(ServeWire, ResponseRoundTrips) {
  std::string bytes;
  serve::append_response(
      bytes, serve::ResponseMsg{42, 7,
                                static_cast<std::uint16_t>(
                                    serve::kRespSafeDefault |
                                    serve::kRespCacheHit)});
  serve::ResponseMsg msg;
  ASSERT_TRUE(serve::parse_response(decode_one(bytes), msg));
  EXPECT_EQ(msg.request_id, 42u);
  EXPECT_EQ(msg.action, 7u);
  EXPECT_TRUE(msg.flags & serve::kRespSafeDefault);
  EXPECT_TRUE(msg.flags & serve::kRespCacheHit);
}

TEST(ServeWire, PingPongRoundTrip) {
  std::string bytes;
  serve::append_ping(bytes, 0xCAFEBABEull);
  std::uint64_t token = 0;
  ASSERT_TRUE(serve::parse_ping(decode_one(bytes), token));
  EXPECT_EQ(token, 0xCAFEBABEull);

  bytes.clear();
  serve::append_pong(bytes, 0xCAFEBABEull);
  token = 0;
  ASSERT_TRUE(serve::parse_pong(decode_one(bytes), token));
  EXPECT_EQ(token, 0xCAFEBABEull);
}

TEST(ServeWire, ReloadAckRoundTrips) {
  std::string bytes;
  serve::append_reload_ack(bytes,
                           serve::ReloadAckMsg{false, "checksum mismatch"});
  serve::ReloadAckMsg ack;
  ASSERT_TRUE(serve::parse_reload_ack(decode_one(bytes), ack));
  EXPECT_FALSE(ack.ok);
  EXPECT_EQ(ack.error, "checksum mismatch");

  bytes.clear();
  serve::append_reload_ack(bytes, serve::ReloadAckMsg{true, ""});
  ASSERT_TRUE(serve::parse_reload_ack(decode_one(bytes), ack));
  EXPECT_TRUE(ack.ok);
  EXPECT_TRUE(ack.error.empty());
}

TEST(ServeWire, ErrorRoundTrips) {
  std::string bytes;
  serve::append_error(
      bytes, serve::ErrorMsg{9, static_cast<std::uint32_t>(
                                    serve::WireErrorCode::BadState),
                             "state index out of range"});
  serve::ErrorMsg err;
  ASSERT_TRUE(serve::parse_error(decode_one(bytes), err));
  EXPECT_EQ(err.request_id, 9u);
  EXPECT_EQ(err.code,
            static_cast<std::uint32_t>(serve::WireErrorCode::BadState));
  EXPECT_EQ(err.message, "state index out of range");
}

TEST(ServeWire, ParseRejectsWrongTypeAndShortPayload) {
  std::string bytes;
  serve::append_ping(bytes, 1);  // 8-byte payload, Ping type
  const util::Frame ping = decode_one(bytes);
  serve::QueryMsg query;
  EXPECT_FALSE(serve::parse_query(ping, query));  // wrong type

  // Right type, truncated payload: a hand-built Query frame with 4 payload
  // bytes passes the CRC but must fail the message parse.
  std::string short_frame;
  util::append_frame(short_frame,
                     static_cast<std::uint8_t>(MsgType::Query), 0, "abcd");
  EXPECT_FALSE(serve::parse_query(decode_one(short_frame), query));
}

// Fuzz-ish: flip every bit of an encoded query; the frame layer must never
// hand a corrupted payload to the message parser as Ok.
TEST(ServeWire, CorruptedQueryNeverParses) {
  std::string bytes;
  serve::append_query(bytes, serve::QueryMsg{77, 1, 55});
  for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = bytes;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      std::size_t offset = 0;
      util::Frame frame;
      const auto status = util::decode_frame(corrupt, offset, frame);
      EXPECT_NE(status, util::FrameStatus::Ok)
          << "flip at byte " << byte << " bit " << bit;
    }
  }
}

TEST(ServeWire, TruncatedQueryNeedsMore) {
  std::string bytes;
  serve::append_query(bytes, serve::QueryMsg{1, 0, 2});
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::size_t offset = 0;
    util::Frame frame;
    EXPECT_EQ(util::decode_frame(std::string_view(bytes).substr(0, len),
                                 offset, frame),
              util::FrameStatus::NeedMore);
  }
}

}  // namespace
}  // namespace pmrl
