// util/crc32.hpp: the slice-by-8 CRC-32 pinned to the IEEE check value and
// to a bytewise reference of the same reflected polynomial, over every
// short length at every alignment, a large buffer, and split updates.
// Checkpoint footers and wire frames store these digests, so any drift
// here breaks every stored artifact.

#include "util/crc32.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace pmrl {
namespace {

/// One bit at a time, straight from the polynomial: no tables at all.
std::uint32_t reference_crc32(const unsigned char* data, std::size_t len) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (0xEDB88320u ^ (crc >> 1)) : (crc >> 1);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

/// Deterministic bytes covering all 256 values.
std::vector<unsigned char> pattern(std::size_t len) {
  std::vector<unsigned char> bytes(len);
  std::uint32_t x = 0x9E3779B9u;
  for (auto& b : bytes) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<unsigned char>(x >> 24);
  }
  return bytes;
}

std::uint32_t sliced(const unsigned char* data, std::size_t len) {
  return crc32_final(crc32_update(kCrc32Init, data, len));
}

TEST(Crc32, CheckValue) {
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0u);
}

TEST(Crc32, MatchesBytewiseAtEveryLengthAndOffset) {
  const auto bytes = pattern(64 + 8);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 64; ++len) {
      EXPECT_EQ(sliced(bytes.data() + offset, len),
                reference_crc32(bytes.data() + offset, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32, MatchesBytewiseOnALargeBuffer) {
  const auto bytes = pattern(100 * 1000);
  EXPECT_EQ(sliced(bytes.data(), bytes.size()),
            reference_crc32(bytes.data(), bytes.size()));
}

TEST(Crc32, SplitUpdatesEqualOneShot) {
  const auto bytes = pattern(64);
  const std::uint32_t whole = sliced(bytes.data(), bytes.size());
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    std::uint32_t state = crc32_update(kCrc32Init, bytes.data(), cut);
    state = crc32_update(state, bytes.data() + cut, bytes.size() - cut);
    EXPECT_EQ(crc32_final(state), whole) << "cut at " << cut;
  }
  const std::string text(bytes.begin(), bytes.end());
  EXPECT_EQ(crc32(text), whole);
}

}  // namespace
}  // namespace pmrl
