#pragma once
// PolicyRegistry: versioned on-disk storage for trained policies — the
// artifact store between "training produced a Q-table" and "the fleet is
// serving it". One directory holds:
//
//   v000001.policy   rl/policy_io checkpoint (v2, CRC-32 footer)
//   v000001.meta     lineage metadata, CRC-32 footer (format below)
//   CURRENT          the promoted version number, CRC-32 footer
//
// Meta format (line-oriented, key,value):
//
//   pmrl-policy-meta,1
//   version,3
//   status,canary
//   parent,2
//   train_seed,42
//   merge_seed,7
//   episodes,60
//   actors,4
//   note,<free text, optional>
//   crc32,<8 lowercase hex digits>
//
// Version ids are monotonic (max existing + 1). Every write is
// tmp-file + rename, so a crashed writer never leaves a torn entry, and
// every read validates the CRC footer, so a flipped bit is a load error
// instead of a silently wrong policy. Lifecycle statuses follow the
// rollout state machine: candidate -> canary -> promoted | rolled_back.

#include <cstdint>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "rl/rl_governor.hpp"

namespace pmrl::policy {

/// Lifecycle status of a registry entry.
enum class PolicyStatus : std::uint8_t {
  Candidate,   ///< registered, not yet serving
  Canary,      ///< serving a slice of decisions next to the incumbent
  Promoted,    ///< the incumbent (CURRENT points here)
  RolledBack,  ///< canary regressed; never serve again
};

const char* policy_status_name(PolicyStatus status);
std::optional<PolicyStatus> policy_status_from_name(std::string_view name);

/// Lineage metadata of one registry entry.
struct PolicyMeta {
  std::uint64_t version = 0;
  PolicyStatus status = PolicyStatus::Candidate;
  /// Version this policy was trained from (0 = none/fresh).
  std::uint64_t parent_version = 0;
  std::uint64_t train_seed = 0;
  std::uint64_t merge_seed = 0;
  std::uint64_t episodes = 0;
  std::uint64_t actors = 0;
  std::string note;

  bool operator==(const PolicyMeta&) const = default;
};

/// The CURRENT pointer exists but does not name a version: it cannot be
/// read, fails its CRC, or holds no number.
class CorruptCurrentError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class PolicyRegistry {
 public:
  /// Opens (creating if needed) the registry directory. Throws
  /// std::runtime_error when the path exists but is not a directory.
  explicit PolicyRegistry(std::filesystem::path dir);

  const std::filesystem::path& dir() const { return dir_; }

  /// Registers a new entry: assigns the next version id, writes the
  /// policy checkpoint and the meta file atomically, and returns the
  /// version. `meta.version` is overwritten with the assignment.
  std::uint64_t add(const rl::RlGovernor& governor, PolicyMeta meta);

  /// All entries, sorted by version. Entries with unreadable/corrupt meta
  /// files are skipped (a warning is logged).
  std::vector<PolicyMeta> list() const;

  /// Metadata of one version; nullopt when absent or corrupt.
  std::optional<PolicyMeta> meta(std::uint64_t version) const;

  /// Loads a version's checkpoint into `governor` (matching shape);
  /// throws rl::PolicyLoadError / std::runtime_error on failure.
  void load(std::uint64_t version, rl::RlGovernor& governor) const;

  /// Rewrites one entry's status (atomic meta rewrite). Throws when the
  /// version does not exist.
  void set_status(std::uint64_t version, PolicyStatus status);

  /// The promoted version (CURRENT); nullopt when nothing was promoted
  /// yet (no pointer file). Throws CorruptCurrentError when the pointer
  /// file cannot be read or fails its CRC or its number.
  std::optional<std::uint64_t> current() const;

  /// Marks `version` promoted and points CURRENT at it. Previously
  /// promoted entries keep their status as history; CURRENT alone names
  /// the incumbent.
  void promote(std::uint64_t version);

  /// Marks `version` rolled back. CURRENT is untouched (the incumbent
  /// keeps serving).
  void rollback(std::uint64_t version);

  /// Latest version with status Candidate; nullopt when none.
  std::optional<std::uint64_t> latest_candidate() const;

  std::filesystem::path policy_path(std::uint64_t version) const;
  std::filesystem::path meta_path(std::uint64_t version) const;

 private:
  void write_meta(const PolicyMeta& meta) const;

  std::filesystem::path dir_;
};

}  // namespace pmrl::policy
