#include "util/atomic_write.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>
#include <system_error>

namespace pmrl::util {

namespace {

/// Closes a POSIX file descriptor on scope exit.
struct ScopedFd {
  explicit ScopedFd(int fd_in) : fd(fd_in) {}
  ~ScopedFd() {
    if (fd >= 0) ::close(fd);
  }
  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;
  const int fd;
};

[[noreturn]] void fail_io(const std::string& what) {
  throw std::runtime_error("atomic_write: " + what + ": " +
                           std::strerror(errno));
}

}  // namespace

void atomic_write(const std::filesystem::path& path,
                  std::string_view content) {
  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    const ScopedFd out(
        ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644));
    if (out.fd < 0) fail_io("cannot open " + tmp.string());
    std::size_t off = 0;
    while (off < content.size()) {
      const ssize_t n =
          ::write(out.fd, content.data() + off, content.size() - off);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) fail_io("short write to " + tmp.string());
      off += static_cast<std::size_t>(n);
    }
    if (::fsync(out.fd) != 0) fail_io("fsync " + tmp.string());
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    throw std::runtime_error("atomic_write: rename " + tmp.string() + " -> " +
                             path.string() + ": " + ec.message());
  }
  const std::filesystem::path dir =
      path.has_parent_path() ? path.parent_path() : ".";
  const ScopedFd dir_fd(
      ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC));
  if (dir_fd.fd < 0 || ::fsync(dir_fd.fd) != 0) {
    fail_io("fsync directory " + dir.string());
  }
}

}  // namespace pmrl::util
