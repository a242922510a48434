// util::atomic_write: the one writer behind every persisted file. A write
// lands whole, an overwrite replaces the old bytes, no tmp file is left
// behind, and a path it cannot write throws instead of failing silently.

#include "util/atomic_write.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace pmrl::util {
namespace {

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(AtomicWrite, WritesReplacesLeavesNoTmpAndThrowsOnAMissingDirectory) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      ("pmrl_atomic_write_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto path = dir / "state.txt";

  atomic_write(path, "first\n");
  EXPECT_EQ(read_file(path), "first\n");
  const std::string binary("a\0b\n", 4);
  atomic_write(path, binary);
  EXPECT_EQ(read_file(path), binary);
  std::size_t entries = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(entry.path(), path);
    ++entries;
  }
  EXPECT_EQ(entries, 1u);

  EXPECT_THROW(atomic_write(dir / "no_such_dir" / "state.txt", "x"),
               std::runtime_error);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace pmrl::util
