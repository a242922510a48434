#pragma once
// Crash-safe file replacement for every file the program persists
// (policy checkpoints, registry entries and pointers, fuzz corpus files).

#include <filesystem>
#include <string_view>

namespace pmrl::util {

/// Writes `content` to `path` atomically and durably: write a tmp file
/// (`path` + ".tmp"), fsync it, rename it over `path`, then fsync the
/// directory so the rename itself survives a crash. A reader sees the old
/// file or the new one, never a torn one. Throws std::runtime_error on any
/// I/O failure.
void atomic_write(const std::filesystem::path& path, std::string_view content);

}  // namespace pmrl::util
