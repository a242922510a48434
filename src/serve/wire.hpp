#pragma once
// Serve wire protocol: the message layer of the policy-decision service.
// Every message travels inside one CRC-32-validated binary frame
// (util/framing.hpp); this header defines the message kinds and their
// little-endian payload layouts:
//
//   Query     u64 request_id, u32 agent, u64 state          (20 bytes)
//   Response  u64 request_id, u32 action, u16 flags, u16 0  (16 bytes)
//   Ping/Pong u64 token                                      (8 bytes)
//   Reload    (empty)
//   ReloadAck u8 ok, error text                              (1+n bytes)
//   Error     u64 request_id, u32 code, message text         (12+n bytes)
//   Report    u64 request_id, f64 energy_j, f64 qos          (24 bytes;
//             doubles travel as their IEEE-754 bit patterns, u64 LE)
//   ReportAck u64 request_id, u8 candidate_arm, u8 state     (10 bytes)
//
// A Query carries a *quantized* rl state: the client runs the
// StateEncoder (or ships precomputed indices) and the server answers with
// the greedy rl::Action index for that agent — the same request/response
// transaction shape as the paper's CPU<->accelerator interface. Response
// flags say how the decision was produced (the canary candidate, or the
// safe-default degradation used for shed/timed-out requests).

#include <cstdint>
#include <string>
#include <string_view>

#include "util/framing.hpp"

namespace pmrl::serve {

/// Frame `type` values of the serve protocol.
enum class MsgType : std::uint8_t {
  Query = 1,
  Response = 2,
  Ping = 3,
  Pong = 4,
  Reload = 5,
  ReloadAck = 6,
  Error = 7,
  /// Decision-outcome feedback for the canary evaluator: the realized
  /// energy/QoS of the last decision this connection received. The
  /// server credits an incumbent-cohort report to the incumbent, and a
  /// canary-cohort report to the candidate only when the candidate under
  /// evaluation made that decision (otherwise to neither arm).
  Report = 8,
  /// Acknowledges a Report: which arm it was credited to and the rollout
  /// state after evaluation (policy::RolloutState as u8).
  ReportAck = 9,
};

const char* msg_type_name(MsgType type);

/// Response flag bits.
inline constexpr std::uint16_t kRespSafeDefault = 1u << 0;  ///< shed/timeout
/// Reserved: set by servers that answered from a decision cache. This
/// server precomputes every answer and never sets it.
inline constexpr std::uint16_t kRespCacheHit = 1u << 1;
/// Decision was made by the canary candidate policy, not the incumbent.
inline constexpr std::uint16_t kRespCanary = 1u << 2;

/// Error codes carried by Error messages.
enum class WireErrorCode : std::uint32_t {
  BadMessage = 1,  ///< malformed payload for the announced type
  BadAgent = 2,    ///< agent index out of range
  BadState = 3,    ///< state index out of range for the agent
};

struct QueryMsg {
  std::uint64_t request_id = 0;
  std::uint32_t agent = 0;
  std::uint64_t state = 0;
};

struct ResponseMsg {
  std::uint64_t request_id = 0;
  std::uint32_t action = 0;
  std::uint16_t flags = 0;
};

struct ErrorMsg {
  std::uint64_t request_id = 0;  ///< 0 when no request could be identified
  std::uint32_t code = 0;
  std::string message;
};

struct ReloadAckMsg {
  bool ok = false;
  std::string error;
};

struct ReportMsg {
  std::uint64_t request_id = 0;
  double energy_j = 0.0;
  double qos = 0.0;
};

struct ReportAckMsg {
  std::uint64_t request_id = 0;
  /// True when the report was credited to the candidate arm: the
  /// connection is in the canary cohort, a canary is being evaluated, and
  /// that candidate (not the incumbent, a safe default or an earlier
  /// candidate) decided the connection's last answer.
  bool candidate_arm = false;
  /// policy::RolloutState of the evaluator after this report.
  std::uint8_t rollout_state = 0;
};

// Encoders append one complete frame to `out` (sendable as-is).
void append_query(std::string& out, const QueryMsg& msg);
void append_response(std::string& out, const ResponseMsg& msg);
void append_ping(std::string& out, std::uint64_t token);
void append_pong(std::string& out, std::uint64_t token);
void append_reload(std::string& out);
void append_reload_ack(std::string& out, const ReloadAckMsg& msg);
void append_error(std::string& out, const ErrorMsg& msg);
void append_report(std::string& out, const ReportMsg& msg);
void append_report_ack(std::string& out, const ReportAckMsg& msg);

// Decoders parse the payload of an already-validated frame of the matching
// type; they return false on a payload that is too short or malformed (the
// frame CRC passed but the peer speaks a different message revision).
bool parse_query(const util::Frame& frame, QueryMsg& msg);
bool parse_response(const util::Frame& frame, ResponseMsg& msg);
bool parse_ping(const util::Frame& frame, std::uint64_t& token);
bool parse_pong(const util::Frame& frame, std::uint64_t& token);
bool parse_reload_ack(const util::Frame& frame, ReloadAckMsg& msg);
bool parse_error(const util::Frame& frame, ErrorMsg& msg);
bool parse_report(const util::Frame& frame, ReportMsg& msg);
bool parse_report_ack(const util::Frame& frame, ReportAckMsg& msg);

}  // namespace pmrl::serve
