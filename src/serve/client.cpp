#include "serve/client.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace pmrl::serve {

namespace {
[[noreturn]] void fail_errno(const std::string& what) {
  throw ClientError("serve client: " + what + ": " + std::strerror(errno));
}
}  // namespace

Client Client::connect_uds(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw ClientError("serve client: uds path too long");
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) fail_errno("socket");
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail_errno("connect " + path);
  }
  return Client(fd);
}

Client Client::connect_tcp(const std::string& host, std::uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* result = nullptr;
  const int rc =
      ::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints,
                    &result);
  if (rc != 0 || !result) {
    throw ClientError("serve client: resolve " + host + ": " +
                      ::gai_strerror(rc));
  }
  int fd = -1;
  int saved = 0;
  for (addrinfo* ai = result; ai; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      saved = errno;
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    saved = errno;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(result);
  if (fd < 0) {
    errno = saved;
    fail_errno("connect " + host + ":" + std::to_string(port));
  }
  return Client(fd);
}

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      rx_(std::move(other.rx_)),
      rx_off_(other.rx_off_),
      next_id_(other.next_id_),
      stashed_(std::move(other.stashed_)) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    rx_ = std::move(other.rx_);
    rx_off_ = other.rx_off_;
    next_id_ = other.next_id_;
    stashed_ = std::move(other.stashed_);
  }
  return *this;
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

void Client::send_all(const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    fail_errno("send");
  }
}

void Client::send_raw(const void* data, std::size_t len) {
  std::string bytes(static_cast<const char*>(data), len);
  send_all(bytes);
}

util::Frame Client::read_frame() {
  // The frame returned by the previous call views rx_, so its bytes are
  // reclaimed only now, once the caller is done with it.
  if (rx_off_ > 4096 && rx_off_ * 2 > rx_.size()) {
    rx_.erase(0, rx_off_);
    rx_off_ = 0;
  }
  for (;;) {
    util::Frame frame;
    const auto status = util::decode_frame(rx_, rx_off_, frame);
    if (status == util::FrameStatus::Ok) return frame;
    if (status != util::FrameStatus::NeedMore) {
      throw ClientError(std::string("serve client: corrupt frame: ") +
                        util::frame_status_name(status));
    }
    char buf[4096];
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n > 0) {
      rx_.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) throw ClientError("serve client: connection closed by peer");
    if (errno == EINTR) continue;
    fail_errno("recv");
  }
}

std::uint64_t Client::send_query(std::uint64_t state, std::uint32_t agent) {
  const std::uint64_t id = next_id_++;
  std::string out;
  append_query(out, QueryMsg{id, agent, state});
  send_all(out);
  return id;
}

ResponseMsg Client::recv_response() {
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
        throw ClientError("serve client: malformed response payload");
      }
      return msg;
    }
    if (type == MsgType::Error) {
      ErrorMsg err;
      parse_error(frame, err);
      throw ClientError("serve client: server error " +
                        std::to_string(err.code) + ": " + err.message);
    }
    // Pong/ReloadAck interleaved with pipelined traffic: not expected from
    // this client's call pattern, drop.
  }
}

Client::Result Client::query(std::uint64_t state, std::uint32_t agent) {
  const std::uint64_t id = send_query(state, agent);
  for (;;) {
    const ResponseMsg msg = recv_response();
    if (msg.request_id != id) {
      stashed_.push_back(msg);
      continue;
    }
    return Result{msg.action, (msg.flags & kRespSafeDefault) != 0,
                  (msg.flags & kRespCanary) != 0};
  }
}

Client::ReportResult Client::report(double energy_j, double qos) {
  const std::uint64_t id = next_id_++;
  std::string out;
  append_report(out, ReportMsg{id, energy_j, qos});
  send_all(out);
  for (;;) {
    const util::Frame frame = read_frame();
    const auto type = static_cast<MsgType>(frame.type);
    if (type == MsgType::ReportAck) {
      ReportAckMsg ack;
      if (!parse_report_ack(frame, ack)) {
        throw ClientError("serve client: malformed report ack");
      }
      return ReportResult{ack.candidate_arm, ack.rollout_state};
    }
    if (type == MsgType::Response) {
      ResponseMsg msg;
      if (parse_response(frame, msg)) stashed_.push_back(msg);
      continue;
    }
    if (type == MsgType::Error) {
      ErrorMsg err;
      parse_error(frame, err);
      throw ClientError("serve client: server error " +
                        std::to_string(err.code) + ": " + err.message);
    }
    throw ClientError("serve client: unexpected reply to report");
  }
}

bool Client::ping(std::uint64_t token) {
  std::string out;
  append_ping(out, token);
  send_all(out);
  for (;;) {
    const util::Frame frame = read_frame();
    if (static_cast<MsgType>(frame.type) == MsgType::Pong) {
      std::uint64_t echoed = 0;
      if (!parse_pong(frame, echoed)) {
        throw ClientError("serve client: malformed pong payload");
      }
      return echoed == token;
    }
    if (static_cast<MsgType>(frame.type) == MsgType::Response) {
      ResponseMsg msg;
      if (parse_response(frame, msg)) stashed_.push_back(msg);
      continue;
    }
    throw ClientError("serve client: unexpected reply to ping");
  }
}

bool Client::reload(std::string* error) {
  std::string out;
  append_reload(out);
  send_all(out);
  for (;;) {
    const util::Frame frame = read_frame();
    if (static_cast<MsgType>(frame.type) == MsgType::ReloadAck) {
      ReloadAckMsg ack;
      if (!parse_reload_ack(frame, ack)) {
        throw ClientError("serve client: malformed reload ack");
      }
      if (!ack.ok && error) *error = ack.error;
      return ack.ok;
    }
    if (static_cast<MsgType>(frame.type) == MsgType::Response) {
      ResponseMsg msg;
      if (parse_response(frame, msg)) stashed_.push_back(msg);
      continue;
    }
    throw ClientError("serve client: unexpected reply to reload");
  }
}

}  // namespace pmrl::serve
