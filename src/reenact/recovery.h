// Surgical recovery: diff the claimed (replayed) state against the carved
// reality, pinpoint the corrupted rows, and emit a minimal ordered SQL
// script undoing the corruption.
//
// Ancora's bar for intrusion recovery is to undo the attacker's effects
// while *preserving legitimate later writes*. Here that falls out of the
// construction: the claimed state is the full replay of the audit log, so
// every logged post-tampering write is already part of the target state,
// and the diff touches exactly the rows where unlogged tampering pushed
// storage off the claimed trajectory. The script is verified by
// materializing the carved reality on a reference engine, applying the
// script, and byte-comparing canonical fingerprints against the replay.
#ifndef DBFA_REENACT_RECOVERY_H_
#define DBFA_REENACT_RECOVERY_H_

#include <memory>
#include <string>
#include <vector>

#include "core/artifacts.h"
#include "reenact/reenactor.h"

namespace dbfa {

/// One row where carved storage disagrees with the claimed state.
struct RowCorruption {
  enum class Kind {
    kExtraneous,  // present in storage, absent from the claimed state
    kMissing,     // claimed, but absent from storage
    kAltered,     // same primary key, different non-key values
  };

  Kind kind = Kind::kExtraneous;
  std::string table;  // catalog key (lower-cased)
  Record claimed;     // empty for kExtraneous
  Record actual;      // empty for kMissing

  std::string ToString() const;
};

/// The corruption inventory plus the ordered undo script. Statement order
/// is DELETEs, then UPDATEs, then INSERTs, each deterministically sorted —
/// extraneous rows leave before their legitimate versions return, so the
/// script replays cleanly even under primary-key uniqueness.
struct RecoveryScript {
  /// Holds the pool of `disk`, the carve the `actual` rows come from.
  explicit RecoveryScript(const CarveResult& disk)
      : string_pools(disk.string_pool) {}

  std::vector<RowCorruption> corruptions;
  std::vector<std::string> statements;
  /// Keeps the `actual` rows readable after the carve is gone
  /// (docs/columnar_memory.md).
  StringPoolSet string_pools;

  /// Storage already matches the claimed state.
  bool Clean() const { return corruptions.empty(); }
  /// Statements joined as an executable script, one per line, ';'-closed.
  std::string ToSql() const;
  std::string ToString() const;
};

/// Outcome of replaying the script against the materialized carved state.
struct RecoveryVerification {
  bool byte_identical = false;
  std::string claimed_fingerprint;    // full replay of the audit log
  std::string recovered_fingerprint;  // carved state + recovery script
};

class RecoveryPlanner {
 public:
  explicit RecoveryPlanner(const Reenactor& reenactor)
      : reenactor_(&reenactor) {}

  /// Diffs the full replay of `log` against the carved active records of
  /// `disk` and emits the undo script. Tables with a usable primary key
  /// diff per-key (detecting in-place alterations); the rest fall back to
  /// full-row multiset comparison.
  Result<RecoveryScript> Plan(const AuditLog& log,
                              const CarveResult& disk) const;

  /// Rebuilds the carved reality on a reference engine: every non-dropped
  /// carved schema, loaded with the typed active (non-orphan) records.
  /// Constraint enforcement is off — tampered storage owes us nothing.
  Result<std::unique_ptr<Database>> MaterializeCarvedState(
      const CarveResult& disk) const;

  /// Applies `script` to the materialized carved state and byte-compares
  /// the result's canonical fingerprint against the full replay of `log`.
  Result<RecoveryVerification> Verify(const RecoveryScript& script,
                                      const AuditLog& log,
                                      const CarveResult& disk) const;

 private:
  const Reenactor* reenactor_;
};

}  // namespace dbfa

#endif  // DBFA_REENACT_RECOVERY_H_
