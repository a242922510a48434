#include "policy/registry.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>

#include "rl/policy_io.hpp"
#include "util/atomic_write.hpp"
#include "util/crc32.hpp"
#include "util/framing.hpp"
#include "util/log.hpp"

namespace pmrl::policy {

namespace {

constexpr std::string_view kMetaMagic = "pmrl-policy-meta";
constexpr int kMetaVersion = 1;
constexpr std::string_view kCurrentName = "CURRENT";

std::string version_stem(std::uint64_t version) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "v%06llu",
                static_cast<unsigned long long>(version));
  return buf;
}

bool parse_u64(std::string_view text, std::uint64_t& value) {
  if (text.empty()) return false;
  const auto* begin = text.data();
  const auto* end = text.data() + text.size();
  const auto result = std::from_chars(begin, end, value, 10);
  return result.ec == std::errc() && result.ptr == end;
}

/// Reads a CRC-footered text file. Returns the payload (everything above
/// the footer, newlines preserved) or nullopt on open/CRC/format failure.
std::optional<std::string> read_checked(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string text = buffer.str();
  // The footer is the final line; locate the newline before it.
  if (!text.empty() && text.back() == '\n') text.pop_back();
  const std::size_t nl = text.rfind('\n');
  const std::string footer =
      nl == std::string::npos ? text : text.substr(nl + 1);
  std::uint32_t stored = 0;
  if (!util::parse_crc32_footer_line(footer, stored)) return std::nullopt;
  const std::string payload =
      nl == std::string::npos ? std::string() : text.substr(0, nl + 1);
  if (pmrl::crc32(payload) != stored) {
    return std::nullopt;
  }
  return payload;
}

std::string with_footer(const std::string& payload) {
  return payload +
         util::crc32_footer_line(pmrl::crc32(payload));
}

}  // namespace

const char* policy_status_name(PolicyStatus status) {
  switch (status) {
    case PolicyStatus::Candidate: return "candidate";
    case PolicyStatus::Canary: return "canary";
    case PolicyStatus::Promoted: return "promoted";
    case PolicyStatus::RolledBack: return "rolled_back";
  }
  return "unknown";
}

std::optional<PolicyStatus> policy_status_from_name(std::string_view name) {
  for (const auto status :
       {PolicyStatus::Candidate, PolicyStatus::Canary, PolicyStatus::Promoted,
        PolicyStatus::RolledBack}) {
    if (name == policy_status_name(status)) return status;
  }
  return std::nullopt;
}

PolicyRegistry::PolicyRegistry(std::filesystem::path dir)
    : dir_(std::move(dir)) {
  std::error_code ec;
  if (std::filesystem::exists(dir_, ec)) {
    if (!std::filesystem::is_directory(dir_, ec)) {
      throw std::runtime_error("registry: " + dir_.string() +
                               " is not a directory");
    }
  } else {
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
      throw std::runtime_error("registry: cannot create " + dir_.string() +
                               ": " + ec.message());
    }
  }
}

std::filesystem::path PolicyRegistry::policy_path(
    std::uint64_t version) const {
  return dir_ / (version_stem(version) + ".policy");
}

std::filesystem::path PolicyRegistry::meta_path(std::uint64_t version) const {
  return dir_ / (version_stem(version) + ".meta");
}

void PolicyRegistry::write_meta(const PolicyMeta& meta) const {
  std::ostringstream out;
  out << kMetaMagic << ',' << kMetaVersion << '\n';
  out << "version," << meta.version << '\n';
  out << "status," << policy_status_name(meta.status) << '\n';
  out << "parent," << meta.parent_version << '\n';
  out << "train_seed," << meta.train_seed << '\n';
  out << "merge_seed," << meta.merge_seed << '\n';
  out << "episodes," << meta.episodes << '\n';
  out << "actors," << meta.actors << '\n';
  if (!meta.note.empty()) out << "note," << meta.note << '\n';
  util::atomic_write(meta_path(meta.version), with_footer(out.str()));
}

std::uint64_t PolicyRegistry::add(const rl::RlGovernor& governor,
                                  PolicyMeta meta) {
  std::uint64_t next = 1;
  for (const PolicyMeta& existing : list()) {
    if (existing.version >= next) next = existing.version + 1;
  }
  meta.version = next;
  std::ostringstream checkpoint;
  rl::save_policy(governor, checkpoint);
  util::atomic_write(policy_path(next), checkpoint.str());
  write_meta(meta);
  return next;
}

std::optional<PolicyMeta> PolicyRegistry::meta(std::uint64_t version) const {
  const auto payload = read_checked(meta_path(version));
  if (!payload) return std::nullopt;
  PolicyMeta meta;
  bool saw_magic = false;
  std::istringstream in(*payload);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t comma = line.find(',');
    if (comma == std::string::npos) return std::nullopt;
    const std::string_view key = std::string_view(line).substr(0, comma);
    const std::string_view value =
        std::string_view(line).substr(comma + 1);
    if (key == kMetaMagic) {
      std::uint64_t v = 0;
      if (!parse_u64(value, v) ||
          v != static_cast<std::uint64_t>(kMetaVersion)) {
        return std::nullopt;
      }
      saw_magic = true;
    } else if (key == "version") {
      if (!parse_u64(value, meta.version)) return std::nullopt;
    } else if (key == "status") {
      const auto status = policy_status_from_name(value);
      if (!status) return std::nullopt;
      meta.status = *status;
    } else if (key == "parent") {
      if (!parse_u64(value, meta.parent_version)) return std::nullopt;
    } else if (key == "train_seed") {
      if (!parse_u64(value, meta.train_seed)) return std::nullopt;
    } else if (key == "merge_seed") {
      if (!parse_u64(value, meta.merge_seed)) return std::nullopt;
    } else if (key == "episodes") {
      if (!parse_u64(value, meta.episodes)) return std::nullopt;
    } else if (key == "actors") {
      if (!parse_u64(value, meta.actors)) return std::nullopt;
    } else if (key == "note") {
      meta.note = std::string(value);
    }
    // Unknown keys are ignored: newer builds may add fields.
  }
  if (!saw_magic || meta.version != version) return std::nullopt;
  return meta;
}

std::vector<PolicyMeta> PolicyRegistry::list() const {
  std::vector<PolicyMeta> entries;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() < 6 || name.front() != 'v' ||
        entry.path().extension() != ".meta") {
      continue;
    }
    std::uint64_t version = 0;
    if (!parse_u64(entry.path().stem().string().substr(1), version)) {
      continue;
    }
    const auto parsed = meta(version);
    if (!parsed) {
      PMRL_WARN("registry") << "skipping unreadable meta " << name;
      continue;
    }
    entries.push_back(*parsed);
  }
  std::sort(entries.begin(), entries.end(),
            [](const PolicyMeta& a, const PolicyMeta& b) {
              return a.version < b.version;
            });
  return entries;
}

void PolicyRegistry::load(std::uint64_t version,
                          rl::RlGovernor& governor) const {
  std::ifstream in(policy_path(version));
  if (!in) {
    throw std::runtime_error("registry: cannot open " +
                             policy_path(version).string());
  }
  rl::load_policy(governor, in);
}

void PolicyRegistry::set_status(std::uint64_t version, PolicyStatus status) {
  auto existing = meta(version);
  if (!existing) {
    throw std::runtime_error("registry: no such version " +
                             std::to_string(version));
  }
  existing->status = status;
  write_meta(*existing);
}

std::optional<std::uint64_t> PolicyRegistry::current() const {
  const std::filesystem::path path = dir_ / kCurrentName;
  std::error_code ec;
  if (!std::filesystem::exists(path, ec) && !ec) return std::nullopt;
  const auto payload = read_checked(path);
  std::string text = payload.value_or("");
  if (!text.empty() && text.back() == '\n') text.pop_back();
  std::uint64_t version = 0;
  if (!payload || !parse_u64(text, version)) {
    throw CorruptCurrentError("registry: CURRENT pointer " + path.string() +
                              " is corrupt (unreadable, bad CRC or no "
                              "version number)");
  }
  return version;
}

void PolicyRegistry::promote(std::uint64_t version) {
  set_status(version, PolicyStatus::Promoted);
  const std::string payload = std::to_string(version) + "\n";
  util::atomic_write(dir_ / kCurrentName, with_footer(payload));
}

void PolicyRegistry::rollback(std::uint64_t version) {
  set_status(version, PolicyStatus::RolledBack);
}

std::optional<std::uint64_t> PolicyRegistry::latest_candidate() const {
  std::optional<std::uint64_t> best;
  for (const PolicyMeta& entry : list()) {
    if (entry.status == PolicyStatus::Candidate) best = entry.version;
  }
  return best;
}

}  // namespace pmrl::policy
