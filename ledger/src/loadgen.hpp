#pragma once
// Open-loop load generation, kept free of sockets so it can be tested with
// an injected clock.
//
// Requests follow a fixed absolute schedule: request i is due at
// start + i / rate. The generator sends every request that is due as one
// batch, so after a stall it catches up in a single write instead of
// spreading the backlog out. Latency is timed from when a request was due,
// not from when it was sent: a stall in the generator is charged to every
// request that waited behind it (no coordinated omission), and the lag
// between due and sent is reported separately so generator stalls can be
// told apart from server tails.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace ledger {

class OpenLoopSchedule {
 public:
  /// `rate_per_s` requests per second, the first one due at `start_ns`.
  OpenLoopSchedule(std::int64_t start_ns, double rate_per_s);

  std::int64_t due_ns(std::uint64_t index) const;
  /// Number of requests due at or before `now_ns` (the next index to send
  /// once all of them have gone out).
  std::uint64_t due_by(std::int64_t now_ns) const;

 private:
  std::int64_t start_ns_;
  double interval_ns_;
};

/// Per-request timing of one open-loop run. Requests with an index below
/// `first_timed` are warm-up: sent and checked, but left out of the timing.
/// `expected` timed requests are reserved up front, so a long run's
/// timings are not copied as they grow.
class DueTimeBook {
 public:
  DueTimeBook(const OpenLoopSchedule& schedule, std::uint64_t first_timed,
              std::size_t expected = 0);

  /// Request `index` went out at `now_ns`.
  void sent(std::uint64_t index, std::int64_t now_ns);
  /// The answer to request `index` arrived at `now_ns`.
  void answered(std::uint64_t index, std::int64_t now_ns);

  /// Due-to-answer latencies of timed requests (microseconds).
  const std::vector<double>& latency_us() const { return latency_us_; }
  /// Due-to-sent lag of timed requests (microseconds).
  const std::vector<double>& lag_us() const { return lag_us_; }
  /// Hands both timings over without copying them; the book is left empty.
  void take(std::vector<double>& latency_us, std::vector<double>& lag_us);

 private:
  const OpenLoopSchedule& schedule_;
  std::uint64_t first_timed_;
  std::vector<double> latency_us_;
  std::vector<double> lag_us_;
};

/// Requests in flight, in a fixed table of slots indexed by request number
/// modulo the slot count, so memory does not grow with the number of
/// requests a run sends. Request n (counted from 0) carries wire id
/// n % period + 1, as the frames of a cycled request stream of length
/// `period` do; the period is a multiple of the slot count, so a wire id
/// always maps to the same slot.
class InFlightTable {
 public:
  InFlightTable(std::size_t slots, std::uint64_t period);

  /// Records request `n` as sent. When its slot still holds an older
  /// request, that one got no answer while `slots` later requests went
  /// out: it is dropped from the table, and add returns true so the caller
  /// can count it as unanswered.
  bool add(std::uint64_t n);
  /// Removes the request in flight that carries `wire_id` and returns its
  /// number; nullopt when no request in flight carries that id.
  std::optional<std::uint64_t> take(std::uint64_t wire_id);

 private:
  std::uint64_t period_;
  /// Request number + 1 per slot; 0 marks a free slot.
  std::vector<std::uint64_t> slots_;
};

/// How one request ended, from the client's point of view.
enum class Outcome : std::uint8_t {
  Ok,           ///< a decision equal to the reference action
  Error,        ///< the server answered with an Error frame
  SafeDefault,  ///< shed or timed out: the degraded all-hold answer
  Wrong,        ///< a decision that differs from the reference action
  Unanswered,   ///< no answer before the run ended
};

Outcome classify_response(bool error_frame, bool degraded,
                          std::uint32_t action, std::uint32_t expected);

/// Counts outcomes; everything but Ok counts as failed.
struct OutcomeTally {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t error = 0;
  std::uint64_t safe_default = 0;
  std::uint64_t wrong = 0;
  std::uint64_t unanswered = 0;

  void add(Outcome outcome);
  /// Requests sent but never answered become Unanswered.
  void close(std::uint64_t sent, std::uint64_t answered);
  std::uint64_t failed() const {
    return error + safe_default + wrong + unanswered;
  }
  double failed_frac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed()) /
                                static_cast<double>(attempted);
  }
};

}  // namespace ledger
