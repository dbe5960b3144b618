// Synthetic OLTP workloads and attack injectors for the security
// experiments (Sections III-A/B/C). Every generator is seeded and returns
// ground truth so benchmarks can score detection precision/recall.
#ifndef DBFA_WORKLOAD_SYNTHETIC_H_
#define DBFA_WORKLOAD_SYNTHETIC_H_

#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/database.h"

namespace dbfa {

/// Schema used by the synthetic workloads:
/// Accounts(Id INT PK, Owner VARCHAR(24), City VARCHAR(16), Balance DOUBLE).
TableSchema AccountsSchema(const std::string& table = "Accounts");

/// One executed operation, with ground truth about how it ran.
struct AppliedOp {
  std::string sql;
  bool logged = true;  // false: executed while the audit log was disabled
};

struct OpMix {
  double insert_weight = 0.45;
  double delete_weight = 0.20;
  double update_weight = 0.25;
  double select_weight = 0.10;
};

class SyntheticWorkload {
 public:
  /// `table` must not exist yet.
  SyntheticWorkload(Database* db, std::string table, uint64_t seed);

  /// Creates the table and inserts `rows` seed rows (logged).
  Status Setup(int rows);

  /// Runs `n` operations with the given mix. When `logged` is false the
  /// audit log is disabled around the batch — the Section III-A attack.
  /// Executed statements are appended to `history()` with ground truth.
  Status Run(int n, const OpMix& mix, bool logged);

  /// Runs one specific statement with logging control; records history.
  Status RunStatement(const std::string& sql, bool logged);

  const std::vector<AppliedOp>& history() const { return history_; }
  int64_t next_id() const { return next_id_; }

 private:
  std::string RandomOwner();
  std::string RandomCity();

  Database* db_;
  std::string table_;
  Rng rng_;
  int64_t next_id_ = 1;
  std::vector<AppliedOp> history_;
};

/// Disk image of a string-heavy audit-trail table (EXPERIMENTS.md E15):
/// Orders with `rows` rows of eleven VARCHAR cells each, every cell past
/// the 15-byte SSO bound, then the first fifth of the rows deleted. Most
/// columns repeat heavily; Customer is distinct per row.
Result<Bytes> StringHeavyOrdersImage(int rows);

// ---- byte-level tampering (Section III-B attacks) ---------------------------

/// Overwrites one column of a live record directly in the storage file,
/// bypassing the DBMS (the "Hex editor / Python as root" attack). The new
/// string value must have the same encoded length as the old one. Fixes
/// the page checksum when `fix_checksum` (a careful attacker).
Status TamperOverwriteField(Database* db, const std::string& table,
                            RowPointer ptr, const std::string& column,
                            const Value& new_value, bool fix_checksum = true);

/// Appends a record into a table page at byte level without touching any
/// index — an "extraneous record" the StorageAuditor must flag.
Status TamperInsertRecord(Database* db, const std::string& table,
                          const Record& values, bool fix_checksum = true);

/// Erases a live record at byte level (zeroes its bytes and tombstones the
/// slot) without a logged DELETE — index entries still point at it.
Status TamperEraseRecord(Database* db, const std::string& table,
                         RowPointer ptr, bool fix_checksum = true);

}  // namespace dbfa

#endif  // DBFA_WORKLOAD_SYNTHETIC_H_
