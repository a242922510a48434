#pragma once
// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) for integrity
// footers on persisted artifacts (policy checkpoints) and the serve wire
// frames. Header-only, slice-by-8 over eight constexpr tables; incremental
// use follows the usual convention:
//
//   std::uint32_t crc = kCrc32Init;
//   crc = crc32_update(crc, data, len);
//   ... more updates ...
//   std::uint32_t digest = crc32_final(crc);
//
// This is not the CRC-32C (Castagnoli) that the SSE4.2 `crc32`
// instruction computes: every stored checkpoint and every frame on the
// wire carries this polynomial's digest.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace pmrl {

inline constexpr std::uint32_t kCrc32Init = 0xFFFFFFFFu;

namespace detail {
using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/// tables[0] is the classic bytewise table; tables[k][b] is the CRC of
/// byte b followed by k zero bytes, so eight lookups fold eight bytes.
constexpr Crc32Tables make_crc32_tables() {
  Crc32Tables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}
inline constexpr Crc32Tables kCrc32Tables = make_crc32_tables();

inline std::uint32_t crc32_load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}
}  // namespace detail

/// Folds `len` bytes into a running CRC state (seed with kCrc32Init).
inline std::uint32_t crc32_update(std::uint32_t state, const void* data,
                                  std::size_t len) {
  const auto& t = detail::kCrc32Tables;
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (; len >= 8; bytes += 8, len -= 8) {
    const std::uint32_t lo = detail::crc32_load_le32(bytes) ^ state;
    const std::uint32_t hi = detail::crc32_load_le32(bytes + 4);
    state = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
            t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
            t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^
            t[0][hi >> 24];
  }
  for (; len > 0; ++bytes, --len) {
    state = t[0][(state ^ *bytes) & 0xFFu] ^ (state >> 8);
  }
  return state;
}

inline std::uint32_t crc32_update(std::uint32_t state,
                                  std::string_view text) {
  return crc32_update(state, text.data(), text.size());
}

/// Final-xor step producing the conventional digest.
inline constexpr std::uint32_t crc32_final(std::uint32_t state) {
  return state ^ 0xFFFFFFFFu;
}

/// One-shot CRC-32 of a byte string.
inline std::uint32_t crc32(std::string_view text) {
  return crc32_final(crc32_update(kCrc32Init, text));
}

}  // namespace pmrl
