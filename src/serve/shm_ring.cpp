#include "serve/shm_ring.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <new>
#include <stdexcept>
#include <thread>
#include <utility>

namespace pmrl::serve {

namespace {

[[noreturn]] void fail_errno(const std::string& what) {
  throw std::runtime_error("serve shm: " + what + ": " + std::strerror(errno));
}

bool is_pow2(std::size_t v) { return v != 0 && (v & (v - 1)) == 0; }

/// Spin a little, then yield the CPU: shm has no fd to block on, so both
/// sides poll; the backoff keeps an idle lane from burning a core.
void backoff(unsigned& spins) {
  if (spins < 64) {
    ++spins;
    return;
  }
  std::this_thread::sleep_for(std::chrono::microseconds(50));
}

constexpr std::size_t kLaneAlign = 64;

std::size_t ring_block_size(std::size_t ring_bytes) {
  return sizeof(ShmRingHeader) + ring_bytes;
}

std::size_t lane_stride(std::size_t ring_bytes) {
  return sizeof(ShmLaneHeader) + 2 * ring_block_size(ring_bytes);
}

}  // namespace

// ---- ShmRing -------------------------------------------------------------

std::size_t ShmRing::write_some(const char* src, std::size_t len) {
  const std::uint64_t head = header_->head.load(std::memory_order_relaxed);
  const std::uint64_t tail = header_->tail.load(std::memory_order_acquire);
  const std::size_t free_bytes =
      capacity_ - static_cast<std::size_t>(head - tail);
  const std::size_t n = len < free_bytes ? len : free_bytes;
  if (n == 0) return 0;
  const std::size_t idx = static_cast<std::size_t>(head) & (capacity_ - 1);
  const std::size_t first = std::min(n, capacity_ - idx);
  std::memcpy(data_ + idx, src, first);
  if (n > first) std::memcpy(data_, src + first, n - first);
  header_->head.store(head + n, std::memory_order_release);
  return n;
}

std::size_t ShmRing::read_some(char* dst, std::size_t len) {
  const std::uint64_t head = header_->head.load(std::memory_order_acquire);
  const std::uint64_t tail = header_->tail.load(std::memory_order_relaxed);
  const std::size_t avail = static_cast<std::size_t>(head - tail);
  const std::size_t n = len < avail ? len : avail;
  if (n == 0) return 0;
  const std::size_t idx = static_cast<std::size_t>(tail) & (capacity_ - 1);
  const std::size_t first = std::min(n, capacity_ - idx);
  std::memcpy(dst, data_ + idx, first);
  if (n > first) std::memcpy(dst + first, data_, n - first);
  header_->tail.store(tail + n, std::memory_order_release);
  return n;
}

// ---- ShmSegment ----------------------------------------------------------

std::size_t ShmSegment::segment_size(std::size_t lanes,
                                     std::size_t ring_bytes) {
  return sizeof(ShmSegmentHeader) + lanes * lane_stride(ring_bytes);
}

char* ShmSegment::lane_base(std::size_t lane) const {
  return static_cast<char*>(map_) + sizeof(ShmSegmentHeader) +
         lane * lane_stride(ring_bytes());
}

std::atomic<std::uint32_t>& ShmSegment::lane_state(std::size_t lane) {
  return reinterpret_cast<ShmLaneHeader*>(lane_base(lane))->state;
}

ShmRing ShmSegment::request_ring(std::size_t lane) {
  char* base = lane_base(lane) + sizeof(ShmLaneHeader);
  return ShmRing(reinterpret_cast<ShmRingHeader*>(base),
                 base + sizeof(ShmRingHeader), ring_bytes());
}

ShmRing ShmSegment::response_ring(std::size_t lane) {
  char* base = lane_base(lane) + sizeof(ShmLaneHeader) +
               ring_block_size(ring_bytes());
  return ShmRing(reinterpret_cast<ShmRingHeader*>(base),
                 base + sizeof(ShmRingHeader), ring_bytes());
}

ShmSegment ShmSegment::create(const std::string& path, std::size_t lanes,
                              std::size_t ring_bytes) {
  if (lanes == 0) throw std::invalid_argument("serve shm: lanes must be >= 1");
  if (!is_pow2(ring_bytes) || ring_bytes % kLaneAlign != 0) {
    throw std::invalid_argument(
        "serve shm: ring_bytes must be a 64-byte-aligned power of two");
  }
  // A ring must hold at least one max-size frame or a writer could stall
  // forever with a frame that never fits.
  if (ring_bytes < util::kFrameHeaderSize + util::kMaxFramePayload) {
    throw std::invalid_argument("serve shm: ring_bytes too small for a frame");
  }
  const std::size_t size = segment_size(lanes, ring_bytes);
  const int fd = ::open(path.c_str(), O_CREAT | O_RDWR | O_TRUNC, 0600);
  if (fd < 0) fail_errno("open " + path);
  if (::ftruncate(fd, static_cast<off_t>(size)) < 0) {
    const int saved = errno;
    ::close(fd);
    ::unlink(path.c_str());
    errno = saved;
    fail_errno("ftruncate " + path);
  }
  void* map =
      ::mmap(nullptr, size, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) {
    ::unlink(path.c_str());
    fail_errno("mmap " + path);
  }
  std::memset(map, 0, size);
  auto* header = new (map) ShmSegmentHeader;
  std::memcpy(header->magic, kShmMagic, sizeof(kShmMagic));
  header->version = kShmVersion;
  header->lane_count = static_cast<std::uint32_t>(lanes);
  header->ring_bytes = ring_bytes;
  header->server_alive.store(1, std::memory_order_relaxed);
  ShmSegment segment(path, map, size, /*creator=*/true);
  for (std::size_t l = 0; l < lanes; ++l) {
    char* base = segment.lane_base(l);
    new (base) ShmLaneHeader;
    new (base + sizeof(ShmLaneHeader)) ShmRingHeader;
    new (base + sizeof(ShmLaneHeader) + ring_block_size(ring_bytes))
        ShmRingHeader;
  }
  std::atomic_thread_fence(std::memory_order_release);
  return segment;
}

ShmSegment ShmSegment::open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) {
    throw ClientError("serve shm: cannot open '" + path +
                      "': " + std::strerror(errno));
  }
  struct stat st {};
  if (::fstat(fd, &st) < 0 ||
      static_cast<std::size_t>(st.st_size) < sizeof(ShmSegmentHeader)) {
    ::close(fd);
    throw ClientError("serve shm: '" + path + "' is not a shm segment");
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  void* map =
      ::mmap(nullptr, size, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) {
    throw ClientError("serve shm: mmap '" + path +
                      "': " + std::strerror(errno));
  }
  ShmSegment segment(path, map, size, /*creator=*/false);
  const auto* header = segment.header();
  if (std::memcmp(header->magic, kShmMagic, sizeof(kShmMagic)) != 0 ||
      header->version != kShmVersion || header->lane_count == 0 ||
      !is_pow2(static_cast<std::size_t>(header->ring_bytes)) ||
      segment_size(header->lane_count,
                   static_cast<std::size_t>(header->ring_bytes)) > size) {
    throw ClientError("serve shm: '" + path + "' has a malformed header");
  }
  return segment;
}

ShmSegment::ShmSegment(ShmSegment&& other) noexcept
    : path_(std::move(other.path_)),
      map_(std::exchange(other.map_, nullptr)),
      map_size_(std::exchange(other.map_size_, 0)),
      creator_(std::exchange(other.creator_, false)) {}

ShmSegment& ShmSegment::operator=(ShmSegment&& other) noexcept {
  if (this != &other) {
    this->~ShmSegment();
    new (this) ShmSegment(std::move(other));
  }
  return *this;
}

ShmSegment::~ShmSegment() {
  if (map_) {
    if (creator_) {
      header()->server_alive.store(0, std::memory_order_release);
    }
    ::munmap(map_, map_size_);
    if (creator_) ::unlink(path_.c_str());
  }
  map_ = nullptr;
}

// ---- ShmClient -----------------------------------------------------------

ShmClient::ShmClient(const std::string& path)
    : segment_(ShmSegment::open(path)) {
  if (segment_.server_alive().load(std::memory_order_acquire) == 0) {
    throw ClientError("serve shm: server is gone");
  }
  for (std::size_t l = 0; l < segment_.lane_count(); ++l) {
    std::uint32_t expected = kLaneFree;
    if (segment_.lane_state(l).compare_exchange_strong(
            expected, kLaneClaimed, std::memory_order_acq_rel)) {
      lane_ = l;
      return;
    }
  }
  throw ClientError("serve shm: no free lane");
}

ShmClient::~ShmClient() {
  if (!segment_.valid()) return;  // moved-from
  segment_.lane_state(lane_).store(kLaneClosed, std::memory_order_release);
}

void ShmClient::send_all(const char* data, std::size_t len) {
  ShmRing ring = segment_.request_ring(lane_);
  std::size_t off = 0;
  unsigned spins = 0;
  while (off < len) {
    const std::size_t n = ring.write_some(data + off, len - off);
    if (n > 0) {
      off += n;
      spins = 0;
      continue;
    }
    if (segment_.server_alive().load(std::memory_order_acquire) == 0) {
      throw ClientError("serve shm: server is gone");
    }
    if (segment_.lane_state(lane_).load(std::memory_order_acquire) ==
        kLanePoisoned) {
      // Keep the poisoned lane's error frame readable; the next recv
      // surfaces it. Further sends are dropped, like writes to a
      // half-closed socket.
      return;
    }
    backoff(spins);
  }
}

void ShmClient::send_raw(const void* data, std::size_t len) {
  send_all(static_cast<const char*>(data), len);
}

util::Frame ShmClient::read_frame() {
  // As in Client::read_frame: the previous frame views rx_ until now.
  if (rx_off_ > 4096 && rx_off_ * 2 > rx_.size()) {
    rx_.erase(0, rx_off_);
    rx_off_ = 0;
  }
  ShmRing ring = segment_.response_ring(lane_);
  unsigned spins = 0;
  for (;;) {
    util::Frame frame;
    const auto status = util::decode_frame(rx_, rx_off_, frame);
    if (status == util::FrameStatus::Ok) return frame;
    if (status != util::FrameStatus::NeedMore) {
      throw ClientError(std::string("serve shm: corrupt frame: ") +
                        util::frame_status_name(status));
    }
    char buf[4096];
    const std::size_t n = ring.read_some(buf, sizeof buf);
    if (n > 0) {
      rx_.append(buf, n);
      spins = 0;
      continue;
    }
    if (segment_.server_alive().load(std::memory_order_acquire) == 0) {
      throw ClientError("serve shm: server is gone");
    }
    backoff(spins);
  }
}

std::uint64_t ShmClient::send_query(std::uint64_t state, std::uint32_t agent) {
  const std::uint64_t id = next_id_++;
  std::string out;
  append_query(out, QueryMsg{id, agent, state});
  send_all(out.data(), out.size());
  return id;
}

ResponseMsg ShmClient::recv_response() {
  if (!stashed_.empty()) {
    ResponseMsg msg = stashed_.front();
    stashed_.pop_front();
    return msg;
  }
  for (;;) {
    const util::Frame frame = read_frame();
    const auto type = static_cast<MsgType>(frame.type);
    if (type == MsgType::Response) {
      ResponseMsg msg;
      if (!parse_response(frame, msg)) {
        throw ClientError("serve shm: malformed response payload");
      }
      return msg;
    }
    if (type == MsgType::Error) {
      ErrorMsg err;
      parse_error(frame, err);
      throw ClientError("serve shm: server error " +
                        std::to_string(err.code) + ": " + err.message);
    }
  }
}

Client::Result ShmClient::query(std::uint64_t state, std::uint32_t agent) {
  const std::uint64_t id = send_query(state, agent);
  for (;;) {
    const ResponseMsg msg = recv_response();
    if (msg.request_id != id) {
      stashed_.push_back(msg);
      continue;
    }
    return Client::Result{msg.action, (msg.flags & kRespSafeDefault) != 0,
                          (msg.flags & kRespCanary) != 0};
  }
}

bool ShmClient::ping(std::uint64_t token) {
  std::string out;
  append_ping(out, token);
  send_all(out.data(), out.size());
  for (;;) {
    const util::Frame frame = read_frame();
    if (static_cast<MsgType>(frame.type) == MsgType::Pong) {
      std::uint64_t echoed = 0;
      if (!parse_pong(frame, echoed)) {
        throw ClientError("serve shm: malformed pong payload");
      }
      return echoed == token;
    }
    if (static_cast<MsgType>(frame.type) == MsgType::Response) {
      ResponseMsg msg;
      if (parse_response(frame, msg)) stashed_.push_back(msg);
      continue;
    }
    throw ClientError("serve shm: unexpected reply to ping");
  }
}

bool ShmClient::reload(std::string* error) {
  std::string out;
  append_reload(out);
  send_all(out.data(), out.size());
  for (;;) {
    const util::Frame frame = read_frame();
    if (static_cast<MsgType>(frame.type) == MsgType::ReloadAck) {
      ReloadAckMsg ack;
      if (!parse_reload_ack(frame, ack)) {
        throw ClientError("serve shm: malformed reload ack");
      }
      if (!ack.ok && error) *error = ack.error;
      return ack.ok;
    }
    if (static_cast<MsgType>(frame.type) == MsgType::Response) {
      ResponseMsg msg;
      if (parse_response(frame, msg)) stashed_.push_back(msg);
      continue;
    }
    throw ClientError("serve shm: unexpected reply to reload");
  }
}

}  // namespace pmrl::serve
