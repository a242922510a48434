#include "serve/wire.hpp"

#include <cstring>

namespace pmrl::serve {

namespace {

using util::framing_detail::get_u16;
using util::framing_detail::get_u32;
using util::framing_detail::get_u64;
using util::framing_detail::store_u16;
using util::framing_detail::store_u32;
using util::framing_detail::store_u64;

bool check(const util::Frame& frame, MsgType type, std::size_t min_payload) {
  return frame.type == static_cast<std::uint8_t>(type) &&
         frame.payload.size() >= min_payload;
}

/// Frames a fixed-layout payload built on the caller's stack.
template <std::size_t N>
void append_fixed(std::string& out, MsgType type, const char (&payload)[N]) {
  util::append_frame(out, static_cast<std::uint8_t>(type), 0,
                     std::string_view(payload, N));
}

// Doubles travel as their IEEE-754 bit patterns so a report round-trips
// bit-exactly (no text formatting in the hot feedback path).
std::uint64_t f64_bits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

double f64_from_bits(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

}  // namespace

const char* msg_type_name(MsgType type) {
  switch (type) {
    case MsgType::Query: return "query";
    case MsgType::Response: return "response";
    case MsgType::Ping: return "ping";
    case MsgType::Pong: return "pong";
    case MsgType::Reload: return "reload";
    case MsgType::ReloadAck: return "reload-ack";
    case MsgType::Error: return "error";
    case MsgType::Report: return "report";
    case MsgType::ReportAck: return "report-ack";
  }
  return "unknown";
}

void append_query(std::string& out, const QueryMsg& msg) {
  char payload[20];
  store_u64(payload, msg.request_id);
  store_u32(payload + 8, msg.agent);
  store_u64(payload + 12, msg.state);
  append_fixed(out, MsgType::Query, payload);
}

void append_response(std::string& out, const ResponseMsg& msg) {
  char payload[16];
  store_u64(payload, msg.request_id);
  store_u32(payload + 8, msg.action);
  store_u16(payload + 12, msg.flags);
  store_u16(payload + 14, 0);
  append_fixed(out, MsgType::Response, payload);
}

void append_ping(std::string& out, std::uint64_t token) {
  char payload[8];
  store_u64(payload, token);
  append_fixed(out, MsgType::Ping, payload);
}

void append_pong(std::string& out, std::uint64_t token) {
  char payload[8];
  store_u64(payload, token);
  append_fixed(out, MsgType::Pong, payload);
}

void append_reload(std::string& out) {
  util::append_frame(out, static_cast<std::uint8_t>(MsgType::Reload), 0, {});
}

void append_reload_ack(std::string& out, const ReloadAckMsg& msg) {
  std::string payload;
  payload.push_back(msg.ok ? 1 : 0);
  payload.append(msg.error);
  util::append_frame(out, static_cast<std::uint8_t>(MsgType::ReloadAck), 0,
                     payload);
}

void append_error(std::string& out, const ErrorMsg& msg) {
  std::string payload(12, '\0');
  store_u64(payload.data(), msg.request_id);
  store_u32(payload.data() + 8, msg.code);
  payload.append(msg.message);
  util::append_frame(out, static_cast<std::uint8_t>(MsgType::Error), 0,
                     payload);
}

void append_report(std::string& out, const ReportMsg& msg) {
  char payload[24];
  store_u64(payload, msg.request_id);
  store_u64(payload + 8, f64_bits(msg.energy_j));
  store_u64(payload + 16, f64_bits(msg.qos));
  append_fixed(out, MsgType::Report, payload);
}

void append_report_ack(std::string& out, const ReportAckMsg& msg) {
  char payload[10];
  store_u64(payload, msg.request_id);
  payload[8] = msg.candidate_arm ? 1 : 0;
  payload[9] = static_cast<char>(msg.rollout_state);
  append_fixed(out, MsgType::ReportAck, payload);
}

bool parse_query(const util::Frame& frame, QueryMsg& msg) {
  if (!check(frame, MsgType::Query, 20)) return false;
  const char* p = frame.payload.data();
  msg.request_id = get_u64(p);
  msg.agent = get_u32(p + 8);
  msg.state = get_u64(p + 12);
  return true;
}

bool parse_response(const util::Frame& frame, ResponseMsg& msg) {
  if (!check(frame, MsgType::Response, 16)) return false;
  const char* p = frame.payload.data();
  msg.request_id = get_u64(p);
  msg.action = get_u32(p + 8);
  msg.flags = get_u16(p + 12);
  return true;
}

bool parse_ping(const util::Frame& frame, std::uint64_t& token) {
  if (!check(frame, MsgType::Ping, 8)) return false;
  token = get_u64(frame.payload.data());
  return true;
}

bool parse_pong(const util::Frame& frame, std::uint64_t& token) {
  if (!check(frame, MsgType::Pong, 8)) return false;
  token = get_u64(frame.payload.data());
  return true;
}

bool parse_reload_ack(const util::Frame& frame, ReloadAckMsg& msg) {
  if (!check(frame, MsgType::ReloadAck, 1)) return false;
  msg.ok = frame.payload[0] != 0;
  msg.error.assign(frame.payload.substr(1));
  return true;
}

bool parse_report(const util::Frame& frame, ReportMsg& msg) {
  if (!check(frame, MsgType::Report, 24)) return false;
  const char* p = frame.payload.data();
  msg.request_id = get_u64(p);
  msg.energy_j = f64_from_bits(get_u64(p + 8));
  msg.qos = f64_from_bits(get_u64(p + 16));
  return true;
}

bool parse_report_ack(const util::Frame& frame, ReportAckMsg& msg) {
  if (!check(frame, MsgType::ReportAck, 10)) return false;
  const char* p = frame.payload.data();
  msg.request_id = get_u64(p);
  msg.candidate_arm = p[8] != 0;
  msg.rollout_state = static_cast<std::uint8_t>(p[9]);
  return true;
}

bool parse_error(const util::Frame& frame, ErrorMsg& msg) {
  if (!check(frame, MsgType::Error, 12)) return false;
  const char* p = frame.payload.data();
  msg.request_id = get_u64(p);
  msg.code = get_u32(p + 8);
  msg.message.assign(frame.payload.substr(12));
  return true;
}

}  // namespace pmrl::serve
