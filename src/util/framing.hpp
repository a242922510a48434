#pragma once
// CRC-32 integrity framing shared by every persisted/transmitted artifact.
// Two shapes use the same checksum conventions (util/crc32.hpp):
//
//  * text artifacts (policy checkpoints, rl/policy_io): a trailing
//    "crc32,<8 lowercase hex digits>" footer line covering every byte
//    above it;
//  * binary frames (the serve wire protocol): a fixed 16-byte header and
//    payload with an embedded CRC-32.
//
// Binary frame layout (explicit little-endian, so a frame is identical
// across hosts):
//
//   offset  size  field
//   0       4     magic "PMRF"
//   4       1     version (kFrameVersion)
//   5       1     type (application-defined message kind)
//   6       2     flags (application-defined, u16)
//   8       4     payload length (u32, <= kMaxFramePayload)
//   12      4     CRC-32 over bytes 4..11 and the payload
//   16      n     payload
//
// The CRC covers everything after the magic (version, type, flags, length,
// payload), so a flipped bit anywhere but the magic itself is detected;
// a corrupted magic fails the magic check first.
//
// The codec allocates nothing per frame: append_frame grows `out` once and
// writes header, payload and CRC in place, and decode_frame copies nothing.
// A decoded Frame's payload is a view into the buffer it was decoded from,
// valid until that buffer next changes (an append, an erase, or the
// buffer's destruction). Handle each frame before touching its buffer
// again, or copy what must outlive it.

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>

#include "util/crc32.hpp"

namespace pmrl::util {

// ---- text footer ---------------------------------------------------------

inline constexpr std::string_view kCrcFooterTag = "crc32";

/// The footer line (newline included) for a payload whose one-shot CRC-32
/// digest is `digest`: "crc32,xxxxxxxx\n".
inline std::string crc32_footer_line(std::uint32_t digest) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%s,%08x\n", kCrcFooterTag.data(), digest);
  return buf;
}

/// Parses a footer line (without its newline) produced by
/// crc32_footer_line; returns false when the tag or hex field is malformed.
inline bool parse_crc32_footer_line(std::string_view line,
                                    std::uint32_t& digest) {
  const std::size_t tag_len = kCrcFooterTag.size();
  if (line.size() != tag_len + 1 + 8) return false;
  if (line.substr(0, tag_len) != kCrcFooterTag || line[tag_len] != ',')
    return false;
  std::uint32_t value = 0;
  for (std::size_t i = tag_len + 1; i < line.size(); ++i) {
    const char c = line[i];
    std::uint32_t nibble;
    if (c >= '0' && c <= '9') nibble = static_cast<std::uint32_t>(c - '0');
    else if (c >= 'a' && c <= 'f')
      nibble = static_cast<std::uint32_t>(c - 'a') + 10;
    else if (c >= 'A' && c <= 'F')
      nibble = static_cast<std::uint32_t>(c - 'A') + 10;
    else
      return false;
    value = (value << 4) | nibble;
  }
  digest = value;
  return true;
}

// ---- binary frames -------------------------------------------------------

inline constexpr std::array<char, 4> kFrameMagic = {'P', 'M', 'R', 'F'};
inline constexpr std::uint8_t kFrameVersion = 1;
inline constexpr std::size_t kFrameHeaderSize = 16;
/// Upper bound on a frame payload; a peer announcing more is corrupt or
/// hostile, and is rejected before any allocation.
inline constexpr std::size_t kMaxFramePayload = 64 * 1024;

enum class FrameStatus {
  Ok,          ///< one complete, validated frame decoded
  NeedMore,    ///< buffer ends mid-header or mid-payload; read more bytes
  BadMagic,    ///< first four bytes are not "PMRF"
  BadVersion,  ///< unrecognized frame version
  BadLength,   ///< announced payload length exceeds kMaxFramePayload
  BadCrc,      ///< checksum mismatch (bit-flip in header fields or payload)
};

inline const char* frame_status_name(FrameStatus status) {
  switch (status) {
    case FrameStatus::Ok: return "ok";
    case FrameStatus::NeedMore: return "need more";
    case FrameStatus::BadMagic: return "bad magic";
    case FrameStatus::BadVersion: return "bad version";
    case FrameStatus::BadLength: return "bad length";
    case FrameStatus::BadCrc: return "bad crc";
  }
  return "unknown";
}

/// One decoded frame. `payload` views the buffer passed to decode_frame
/// and is valid only until that buffer next changes.
struct Frame {
  std::uint8_t version = kFrameVersion;
  std::uint8_t type = 0;
  std::uint16_t flags = 0;
  std::string_view payload;
};

/// Little-endian loads and in-place stores of the frame and message fields.
namespace framing_detail {
inline void store_u16(char* p, std::uint16_t v) {
  p[0] = static_cast<char>(v & 0xFF);
  p[1] = static_cast<char>(v >> 8);
}
inline void store_u32(char* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
}
inline void store_u64(char* p, std::uint64_t v) {
  store_u32(p, static_cast<std::uint32_t>(v));
  store_u32(p + 4, static_cast<std::uint32_t>(v >> 32));
}
inline std::uint16_t get_u16(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<std::uint16_t>(b[0] | (b[1] << 8));
}
inline std::uint32_t get_u32(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<std::uint32_t>(b[0]) |
         (static_cast<std::uint32_t>(b[1]) << 8) |
         (static_cast<std::uint32_t>(b[2]) << 16) |
         (static_cast<std::uint32_t>(b[3]) << 24);
}
inline std::uint64_t get_u64(const char* p) {
  return static_cast<std::uint64_t>(get_u32(p)) |
         (static_cast<std::uint64_t>(get_u32(p + 4)) << 32);
}
}  // namespace framing_detail

/// Appends one encoded frame to `out`, growing it once. The payload must
/// not exceed kMaxFramePayload (the wire layer's messages are all tiny; a
/// decoder rejects anything larger before allocating) and must not view
/// `out` itself.
inline void append_frame(std::string& out, std::uint8_t type,
                         std::uint16_t flags, std::string_view payload) {
  using namespace framing_detail;
  const std::size_t at = out.size();
  out.resize(at + kFrameHeaderSize + payload.size());
  char* p = out.data() + at;
  std::memcpy(p, kFrameMagic.data(), kFrameMagic.size());
  p[4] = static_cast<char>(kFrameVersion);
  p[5] = static_cast<char>(type);
  store_u16(p + 6, flags);
  store_u32(p + 8, static_cast<std::uint32_t>(payload.size()));
  if (!payload.empty()) {
    std::memcpy(p + kFrameHeaderSize, payload.data(), payload.size());
  }
  std::uint32_t crc = crc32_update(kCrc32Init, p + 4, 8);
  crc = crc32_update(crc, p + kFrameHeaderSize, payload.size());
  store_u32(p + 12, crc32_final(crc));
}

/// Attempts to decode one frame from `buffer` starting at `offset`. On Ok
/// the frame is filled, its payload viewing `buffer`, and `offset` advances
/// past it; on NeedMore nothing changes (append more bytes and retry); on
/// any error `offset` is left at the bad frame (callers typically drop the
/// connection).
inline FrameStatus decode_frame(std::string_view buffer, std::size_t& offset,
                                Frame& frame) {
  using namespace framing_detail;
  const std::size_t avail = buffer.size() - offset;
  if (avail < kFrameHeaderSize) return FrameStatus::NeedMore;
  const char* p = buffer.data() + offset;
  if (std::string_view(p, 4) !=
      std::string_view(kFrameMagic.data(), kFrameMagic.size())) {
    return FrameStatus::BadMagic;
  }
  const auto version = static_cast<std::uint8_t>(p[4]);
  if (version != kFrameVersion) return FrameStatus::BadVersion;
  const std::uint32_t payload_len = get_u32(p + 8);
  if (payload_len > kMaxFramePayload) return FrameStatus::BadLength;
  if (avail < kFrameHeaderSize + payload_len) return FrameStatus::NeedMore;
  const std::uint32_t stored = get_u32(p + 12);
  std::uint32_t crc = crc32_update(kCrc32Init, p + 4, 8);
  crc = crc32_update(crc, p + kFrameHeaderSize, payload_len);
  if (crc32_final(crc) != stored) return FrameStatus::BadCrc;
  frame.version = version;
  frame.type = static_cast<std::uint8_t>(p[5]);
  frame.flags = get_u16(p + 6);
  frame.payload = std::string_view(p + kFrameHeaderSize, payload_len);
  offset += kFrameHeaderSize + payload_len;
  return FrameStatus::Ok;
}

}  // namespace pmrl::util
