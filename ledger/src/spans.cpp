#include "spans.hpp"

#include <algorithm>
#include <utility>

namespace ledger {

int SpanRecorder::begin(std::string name, int parent, std::uint64_t id) {
  const std::int64_t t = now_ns();
  return add(std::move(name), t, t, parent, id);
}

void SpanRecorder::end(int index) {
  spans_.at(static_cast<std::size_t>(index)).end_ns = now_ns();
}

int SpanRecorder::add(std::string name, std::int64_t start_ns,
                      std::int64_t end_ns, int parent, std::uint64_t id) {
  spans_.push_back(Span{std::move(name), start_ns, end_ns, parent, id});
  return static_cast<int>(spans_.size() - 1);
}

double SpanRecorder::duration_ns(int index) const {
  const Span& s = spans_.at(static_cast<std::size_t>(index));
  return static_cast<double>(s.end_ns - s.start_ns);
}

double SpanRecorder::self_ns(int index) const {
  const Span& self = spans_.at(static_cast<std::size_t>(index));
  std::vector<std::pair<std::int64_t, std::int64_t>> cover;
  for (const Span& s : spans_) {
    if (s.parent != index) continue;
    const std::int64_t a = std::max(s.start_ns, self.start_ns);
    const std::int64_t b = std::min(s.end_ns, self.end_ns);
    if (b > a) cover.emplace_back(a, b);
  }
  std::sort(cover.begin(), cover.end());
  std::int64_t covered = 0;
  std::int64_t reach = self.start_ns;
  for (const auto& [a, b] : cover) {
    const std::int64_t from = std::max(a, reach);
    if (b > from) covered += b - from;
    reach = std::max(reach, b);
  }
  return static_cast<double>(self.end_ns - self.start_ns - covered);
}

void SpanRecorder::write_json(std::ostream& out) const {
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"name\": \"" << s.name << "\", \"start_ns\": "
        << (s.start_ns - origin) << ", \"end_ns\": " << (s.end_ns - origin)
        << ", \"parent\": " << s.parent << ", \"id\": " << s.id
        << ", \"self_ns\": " << static_cast<std::int64_t>(
                                    self_ns(static_cast<int>(i)))
        << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

}  // namespace ledger
