#include "loadgen.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace ledger {

OpenLoopSchedule::OpenLoopSchedule(std::int64_t start_ns, double rate_per_s)
    : start_ns_(start_ns), interval_ns_(1e9 / rate_per_s) {
  if (!(rate_per_s > 0.0)) {
    throw std::invalid_argument("open-loop rate must be positive");
  }
}

std::int64_t OpenLoopSchedule::due_ns(std::uint64_t index) const {
  return start_ns_ +
         static_cast<std::int64_t>(std::llround(static_cast<double>(index) *
                                                interval_ns_));
}

std::uint64_t OpenLoopSchedule::due_by(std::int64_t now_ns) const {
  if (now_ns < start_ns_) return 0;
  const double elapsed = static_cast<double>(now_ns - start_ns_);
  auto count = static_cast<std::uint64_t>(elapsed / interval_ns_) + 1;
  // Settle the float division against the exact due times.
  while (count > 0 && due_ns(count - 1) > now_ns) --count;
  while (due_ns(count) <= now_ns) ++count;
  return count;
}

DueTimeBook::DueTimeBook(const OpenLoopSchedule& schedule,
                         std::uint64_t first_timed, std::size_t expected)
    : schedule_(schedule), first_timed_(first_timed) {
  latency_us_.reserve(expected);
  lag_us_.reserve(expected);
}

void DueTimeBook::sent(std::uint64_t index, std::int64_t now_ns) {
  if (index < first_timed_) return;
  lag_us_.push_back(static_cast<double>(now_ns - schedule_.due_ns(index)) *
                    1e-3);
}

void DueTimeBook::answered(std::uint64_t index, std::int64_t now_ns) {
  if (index < first_timed_) return;
  latency_us_.push_back(
      static_cast<double>(now_ns - schedule_.due_ns(index)) * 1e-3);
}

void DueTimeBook::take(std::vector<double>& latency_us,
                       std::vector<double>& lag_us) {
  latency_us = std::move(latency_us_);
  lag_us = std::move(lag_us_);
  latency_us_.clear();
  lag_us_.clear();
}

InFlightTable::InFlightTable(std::size_t slots, std::uint64_t period)
    : period_(period), slots_(slots, 0) {
  if (slots == 0 || period == 0 || period % slots != 0) {
    throw std::invalid_argument(
        "in-flight slots must be a non-zero divisor of the stream period");
  }
}

bool InFlightTable::add(std::uint64_t n) {
  std::uint64_t& slot = slots_[n % slots_.size()];
  const bool dropped = slot != 0;
  slot = n + 1;
  return dropped;
}

std::optional<std::uint64_t> InFlightTable::take(std::uint64_t wire_id) {
  if (wire_id == 0 || wire_id > period_) return std::nullopt;
  std::uint64_t& slot = slots_[(wire_id - 1) % slots_.size()];
  if (slot == 0 || (slot - 1) % period_ != wire_id - 1) return std::nullopt;
  const std::uint64_t n = slot - 1;
  slot = 0;
  return n;
}

Outcome classify_response(bool error_frame, bool degraded,
                          std::uint32_t action, std::uint32_t expected) {
  if (error_frame) return Outcome::Error;
  if (degraded) return Outcome::SafeDefault;
  return action == expected ? Outcome::Ok : Outcome::Wrong;
}

void OutcomeTally::add(Outcome outcome) {
  ++attempted;
  switch (outcome) {
    case Outcome::Ok: ++ok; break;
    case Outcome::Error: ++error; break;
    case Outcome::SafeDefault: ++safe_default; break;
    case Outcome::Wrong: ++wrong; break;
    case Outcome::Unanswered: ++unanswered; break;
  }
}

void OutcomeTally::close(std::uint64_t sent, std::uint64_t answered) {
  for (std::uint64_t i = answered; i < sent; ++i) add(Outcome::Unanswered);
}

}  // namespace ledger
