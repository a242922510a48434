#pragma once
// C++ client for the policy-decision service. Two usage shapes:
//
//  * blocking RPC: `query(state)` sends one Query and waits for its
//    Response (out-of-order responses for other ids are buffered);
//  * pipelined: `send_query()` / `recv_response()` let a load generator
//    keep many requests in flight on one connection — the pattern that
//    reaches the service's batched throughput.
//
// The client is deliberately synchronous and single-threaded (one
// connection per thread); the server side handles the concurrency.

#include <cstdint>
#include <deque>
#include <stdexcept>
#include <string>

#include "serve/wire.hpp"

namespace pmrl::serve {

/// Connection-level failure: socket error, peer close, corrupt frame, or
/// an Error message from the server (message() carries the detail).
class ClientError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Client {
 public:
  static Client connect_uds(const std::string& path);
  static Client connect_tcp(const std::string& host, std::uint16_t port);

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client();

  /// One decision, blocking. Throws ClientError on any failure, including
  /// a server-side Error response (bad state/agent).
  struct Result {
    std::uint32_t action = 0;
    bool safe_default = false;  ///< shed or timed out: all-hold degradation
    bool canary = false;  ///< decided by the canary candidate policy
  };
  Result query(std::uint64_t state, std::uint32_t agent = 0);

  /// Reports a realized decision outcome (energy spent, QoS delivered) to
  /// the server's canary evaluator and waits for the acknowledgement.
  struct ReportResult {
    bool candidate_arm = false;   ///< arm the report was credited to
    std::uint8_t rollout_state = 0;  ///< policy::RolloutState after it
  };
  ReportResult report(double energy_j, double qos);

  // -- pipelined interface -------------------------------------------------

  /// Sends one Query without waiting. Returns the request id used.
  std::uint64_t send_query(std::uint64_t state, std::uint32_t agent = 0);

  /// Receives the next Response (any id; batching may reorder). Throws
  /// ClientError on socket failure, corrupt frames, or Error messages.
  ResponseMsg recv_response();

  /// Round-trips a Ping; false only on token mismatch (failures throw).
  bool ping(std::uint64_t token = 1);

  /// Asks the server to hot-reload its checkpoint. Returns the server's
  /// verdict; on failure `error` (when non-null) carries the reason.
  bool reload(std::string* error = nullptr);

  /// Writes raw bytes to the socket (corruption/fuzz tests).
  void send_raw(const void* data, std::size_t len);

  int fd() const { return fd_; }

 private:
  explicit Client(int fd) : fd_(fd) {}
  /// Next frame from the socket; its payload views rx_ and stays valid
  /// until the next call.
  util::Frame read_frame();
  void send_all(const std::string& bytes);

  int fd_ = -1;
  std::string rx_;
  std::size_t rx_off_ = 0;
  std::uint64_t next_id_ = 1;
  /// Responses received while waiting for a specific id.
  std::deque<ResponseMsg> stashed_;
};

}  // namespace pmrl::serve
