#include "obs/trace_event.hpp"

#include <cctype>
#include <cstdio>
#include <stdexcept>

namespace pmrl::obs {

namespace {

/// Fixed CSV columns ahead of the per-cluster groups.
constexpr std::size_t kFixedColumns = 16;
constexpr std::size_t kClusterColumns = 5;

std::string format_u64(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llu",
                static_cast<unsigned long long>(value));
  return buf;
}

double parse_double(const std::string& field, const char* what) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(field, &pos);
    if (pos != field.size()) throw std::invalid_argument(field);
    return v;
  } catch (const std::exception&) {
    throw std::runtime_error(std::string("trace: bad double in ") + what +
                             ": '" + field + "'");
  }
}

std::uint64_t parse_u64(const std::string& field, const char* what) {
  try {
    std::size_t pos = 0;
    const unsigned long long v = std::stoull(field, &pos);
    if (pos != field.size()) throw std::invalid_argument(field);
    return v;
  } catch (const std::exception&) {
    throw std::runtime_error(std::string("trace: bad integer in ") + what +
                             ": '" + field + "'");
  }
}

}  // namespace

const char* event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::RunBegin: return "run_begin";
    case EventKind::Epoch: return "epoch";
    case EventKind::Decision: return "decision";
    case EventKind::Fault: return "fault";
    case EventKind::Watchdog: return "watchdog";
    case EventKind::HwInvoke: return "hw_invoke";
    case EventKind::RunEnd: return "run_end";
    case EventKind::Budget: return "budget";
    case EventKind::Rollout: return "rollout";
  }
  return "unknown";
}

std::optional<EventKind> event_kind_from_name(std::string_view name) {
  for (const EventKind kind :
       {EventKind::RunBegin, EventKind::Epoch, EventKind::Decision,
        EventKind::Fault, EventKind::Watchdog, EventKind::HwInvoke,
        EventKind::RunEnd, EventKind::Budget, EventKind::Rollout}) {
    if (name == event_kind_name(kind)) return kind;
  }
  return std::nullopt;
}

std::string format_trace_double(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

// ---- CSV -------------------------------------------------------------------

std::vector<std::string> trace_csv_header(std::size_t cluster_count) {
  std::vector<std::string> header = {
      "kind",     "epoch",          "time_s",   "index",
      "state",    "action",         "reward",   "energy_j",
      "total_energy_j", "quality",  "violations", "releases",
      "power_w",  "latency_s",      "value",    "detail"};
  for (std::size_t c = 0; c < cluster_count; ++c) {
    const std::string prefix =
        std::string("c").append(std::to_string(c)).append("_");
    header.push_back(prefix + "opp");
    header.push_back(prefix + "freq_hz");
    header.push_back(prefix + "util");
    header.push_back(prefix + "energy_j");
    header.push_back(prefix + "temp_c");
  }
  return header;
}

void trace_csv_fields(const TraceEvent& event, std::size_t cluster_count,
                      std::vector<std::string>& out) {
  out.clear();
  out.reserve(kFixedColumns + kClusterColumns * cluster_count);
  out.push_back(event_kind_name(event.kind));
  out.push_back(format_u64(event.epoch));
  out.push_back(format_trace_double(event.time_s));
  out.push_back(format_u64(event.index));
  out.push_back(format_u64(event.state));
  out.push_back(format_u64(event.action));
  out.push_back(format_trace_double(event.reward));
  out.push_back(format_trace_double(event.energy_j));
  out.push_back(format_trace_double(event.total_energy_j));
  out.push_back(format_trace_double(event.quality));
  out.push_back(format_u64(event.violations));
  out.push_back(format_u64(event.releases));
  out.push_back(format_trace_double(event.power_w));
  out.push_back(format_trace_double(event.latency_s));
  out.push_back(format_trace_double(event.value));
  out.push_back(event.detail);
  for (std::size_t c = 0; c < cluster_count; ++c) {
    if (c < event.clusters.size()) {
      const ClusterSample& s = event.clusters[c];
      out.push_back(format_u64(s.opp_index));
      out.push_back(format_trace_double(s.freq_hz));
      out.push_back(format_trace_double(s.util_avg));
      out.push_back(format_trace_double(s.energy_j));
      out.push_back(format_trace_double(s.temp_c));
    } else {
      for (std::size_t k = 0; k < kClusterColumns; ++k) out.emplace_back();
    }
  }
}

TraceEvent trace_from_csv_fields(const std::vector<std::string>& fields,
                                 std::size_t cluster_count) {
  if (fields.size() != kFixedColumns + kClusterColumns * cluster_count) {
    throw std::runtime_error("trace: row width " +
                             std::to_string(fields.size()) +
                             " does not match " +
                             std::to_string(cluster_count) + " clusters");
  }
  TraceEvent event;
  const auto kind = event_kind_from_name(fields[0]);
  if (!kind) {
    throw std::runtime_error("trace: unknown event kind '" + fields[0] + "'");
  }
  event.kind = *kind;
  event.epoch = parse_u64(fields[1], "epoch");
  event.time_s = parse_double(fields[2], "time_s");
  event.index = static_cast<std::uint32_t>(parse_u64(fields[3], "index"));
  event.state = parse_u64(fields[4], "state");
  event.action = static_cast<std::uint32_t>(parse_u64(fields[5], "action"));
  event.reward = parse_double(fields[6], "reward");
  event.energy_j = parse_double(fields[7], "energy_j");
  event.total_energy_j = parse_double(fields[8], "total_energy_j");
  event.quality = parse_double(fields[9], "quality");
  event.violations = parse_u64(fields[10], "violations");
  event.releases = parse_u64(fields[11], "releases");
  event.power_w = parse_double(fields[12], "power_w");
  event.latency_s = parse_double(fields[13], "latency_s");
  event.value = parse_double(fields[14], "value");
  event.detail = fields[15];
  for (std::size_t c = 0; c < cluster_count; ++c) {
    const std::size_t base = kFixedColumns + c * kClusterColumns;
    if (fields[base].empty()) break;  // no sample for this (or any later) slot
    ClusterSample s;
    s.opp_index = static_cast<std::uint32_t>(parse_u64(fields[base], "opp"));
    s.freq_hz = parse_double(fields[base + 1], "freq_hz");
    s.util_avg = parse_double(fields[base + 2], "util");
    s.energy_j = parse_double(fields[base + 3], "cluster energy_j");
    s.temp_c = parse_double(fields[base + 4], "temp_c");
    event.clusters.push_back(s);
  }
  return event;
}

// ---- JSONL -----------------------------------------------------------------

namespace {

void append_json_string(std::string& out, const std::string& value) {
  out += '"';
  for (const char ch : value) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  out += '"';
}

/// Minimal parser for the flat JSON objects trace_jsonl_line emits: one
/// object of number/string members plus one "clusters" array of flat
/// number objects. Not a general JSON parser.
class JsonlParser {
 public:
  explicit JsonlParser(const std::string& text) : text_(text) {}

  TraceEvent parse() {
    TraceEvent event;
    expect('{');
    bool first = true;
    while (true) {
      skip_ws();
      if (peek() == '}') {
        ++pos_;
        break;
      }
      if (!first) fail("expected ',' or '}'");
      first = false;
      parse_members(event);
    }
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return event;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("trace jsonl: " + what + " at offset " +
                             std::to_string(pos_));
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t')) {
      ++pos_;
    }
  }

  void expect(char ch) {
    skip_ws();
    if (peek() != ch) fail(std::string("expected '") + ch + "'");
    ++pos_;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char ch = text_[pos_++];
      if (ch == '"') break;
      if (ch != '\\') {
        out += ch;
        continue;
      }
      if (pos_ >= text_.size()) fail("dangling escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("short \\u escape");
          unsigned code = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          if (code > 0xFF) fail("non-latin \\u escape unsupported");
          out += static_cast<char>(code);
          break;
        }
        default: fail("unknown escape");
      }
    }
    return out;
  }

  double parse_number() {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (start == pos_) fail("expected number");
    return parse_double(text_.substr(start, pos_ - start), "jsonl number");
  }

  void parse_members(TraceEvent& event) {
    while (true) {
      skip_ws();
      const std::string key = parse_string();
      expect(':');
      skip_ws();
      if (key == "kind") {
        const std::string name = parse_string();
        const auto kind = event_kind_from_name(name);
        if (!kind) fail("unknown kind '" + name + "'");
        event.kind = *kind;
      } else if (key == "detail") {
        event.detail = parse_string();
      } else if (key == "clusters") {
        parse_clusters(event);
      } else {
        const double v = parse_number();
        if (key == "epoch") event.epoch = static_cast<std::uint64_t>(v);
        else if (key == "time_s") event.time_s = v;
        else if (key == "index") event.index = static_cast<std::uint32_t>(v);
        else if (key == "state") event.state = static_cast<std::uint64_t>(v);
        else if (key == "action") event.action = static_cast<std::uint32_t>(v);
        else if (key == "reward") event.reward = v;
        else if (key == "energy_j") event.energy_j = v;
        else if (key == "total_energy_j") event.total_energy_j = v;
        else if (key == "quality") event.quality = v;
        else if (key == "violations") event.violations = static_cast<std::uint64_t>(v);
        else if (key == "releases") event.releases = static_cast<std::uint64_t>(v);
        else if (key == "power_w") event.power_w = v;
        else if (key == "latency_s") event.latency_s = v;
        else if (key == "value") event.value = v;
        else fail("unknown member '" + key + "'");
      }
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      return;
    }
  }

  void parse_clusters(TraceEvent& event) {
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return;
    }
    while (true) {
      expect('{');
      ClusterSample sample;
      while (true) {
        skip_ws();
        const std::string key = parse_string();
        expect(':');
        const double v = parse_number();
        if (key == "opp") sample.opp_index = static_cast<std::uint32_t>(v);
        else if (key == "freq_hz") sample.freq_hz = v;
        else if (key == "util") sample.util_avg = v;
        else if (key == "energy_j") sample.energy_j = v;
        else if (key == "temp_c") sample.temp_c = v;
        else fail("unknown cluster member '" + key + "'");
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect('}');
        break;
      }
      event.clusters.push_back(sample);
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string trace_jsonl_line(const TraceEvent& event) {
  std::string out;
  out.reserve(256);
  out += "{\"kind\":";
  append_json_string(out, event_kind_name(event.kind));
  out += ",\"epoch\":" + format_u64(event.epoch);
  out += ",\"time_s\":" + format_trace_double(event.time_s);
  out += ",\"index\":" + format_u64(event.index);
  out += ",\"state\":" + format_u64(event.state);
  out += ",\"action\":" + format_u64(event.action);
  out += ",\"reward\":" + format_trace_double(event.reward);
  out += ",\"energy_j\":" + format_trace_double(event.energy_j);
  out += ",\"total_energy_j\":" + format_trace_double(event.total_energy_j);
  out += ",\"quality\":" + format_trace_double(event.quality);
  out += ",\"violations\":" + format_u64(event.violations);
  out += ",\"releases\":" + format_u64(event.releases);
  out += ",\"power_w\":" + format_trace_double(event.power_w);
  out += ",\"latency_s\":" + format_trace_double(event.latency_s);
  out += ",\"value\":" + format_trace_double(event.value);
  out += ",\"detail\":";
  append_json_string(out, event.detail);
  out += ",\"clusters\":[";
  for (std::size_t c = 0; c < event.clusters.size(); ++c) {
    const ClusterSample& s = event.clusters[c];
    if (c > 0) out += ',';
    out += "{\"opp\":" + format_u64(s.opp_index);
    out += ",\"freq_hz\":" + format_trace_double(s.freq_hz);
    out += ",\"util\":" + format_trace_double(s.util_avg);
    out += ",\"energy_j\":" + format_trace_double(s.energy_j);
    out += ",\"temp_c\":" + format_trace_double(s.temp_c);
    out += '}';
  }
  out += "]}";
  return out;
}

TraceEvent trace_from_jsonl_line(const std::string& line) {
  return JsonlParser(line).parse();
}

}  // namespace pmrl::obs
