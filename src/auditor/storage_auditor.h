// DBStorageAuditor (Section III-B): detect direct database-file tampering
// — writes made with a hex editor or script as root, which the DBMS cannot
// log — by using indexes to verify table-data integrity.
//
// Stage 1 verifies each B-Tree's structural integrity from carved pages
// (within-node key ordering, leaf-chain ordering, child reachability,
// checksums): tampering that touched the index itself surfaces here.
//
// Stage 2 deconstructs every index pointer, sorts pointers by physical
// location, and merge-matches them against the (physically ordered) table
// records — the scalable approach of the paper. The naive nested-loop
// matcher it replaces is kept outside the library, as the test oracle and
// ablation baseline in tests/oracles/auditor_reference.h. Discrepancies:
//   * extraneous record — an active record reached by no index entry
//     (smuggled in at byte level);
//   * dangling pointer  — an entry pointing at a slot that is missing or
//     unparseable (record erased at byte level);
//   * value mismatch    — an entry whose key disagrees with the live
//     record it points to (record overwritten in place).
// Entries pointing at delete-marked records are *expected* residue
// ("deleted values"), not tampering.
#ifndef DBFA_AUDITOR_STORAGE_AUDITOR_H_
#define DBFA_AUDITOR_STORAGE_AUDITOR_H_

#include <optional>
#include <string>
#include <vector>

#include "core/carver.h"

namespace dbfa {

struct BTreeIssue {
  uint32_t index_object = 0;
  uint32_t page_id = 0;
  std::string what;
};

struct TamperFinding {
  enum class Kind { kExtraneousRecord, kDanglingPointer, kValueMismatch };
  Kind kind = Kind::kExtraneousRecord;
  std::string table;
  std::string index_name;  // empty for extraneous records
  uint32_t page_id = 0;
  uint16_t slot = 0;
  Record record_values;          // when a record is involved
  std::vector<Value> index_keys;  // when an entry is involved

  std::string ToString() const;
};

struct AuditReport {
  /// Holds the pool of `carve`, the audited carve.
  explicit AuditReport(const CarveResult& carve)
      : string_pools(carve.string_pool) {}

  std::vector<BTreeIssue> index_issues;
  std::vector<TamperFinding> findings;
  size_t records_checked = 0;
  size_t pointers_checked = 0;
  /// Keeps the record and key values in the findings readable after the
  /// audited CarveResult is gone (docs/columnar_memory.md).
  StringPoolSet string_pools;

  bool Clean() const { return index_issues.empty() && findings.empty(); }
  std::string ToString() const;
};

class StorageAuditor {
 public:
  explicit StorageAuditor(CarverConfig config);

  /// Carves `image` and audits every table that has at least one index.
  Result<AuditReport> Audit(ByteView image) const;

  /// Audits a pre-carved result (lets benchmarks time matching alone).
  Result<AuditReport> AuditCarve(const CarveResult& carve) const;

 private:
  CarverConfig config_;
};

// Stage 2's inputs and finding rules, as AuditCarve uses them; the
// reference matcher in tests/oracles/ pairs the same inputs by nested loops.
namespace auditor_internal {

/// A typed, slotted table record with its key for one index.
struct LocatedRecord {
  RowPointer loc;
  const CarvedRecord* record = nullptr;
  std::vector<Value> keys;
  bool keys_indexed = false;  // at least one non-NULL key component
};

/// A leaf entry of one index, located by the record pointer it carries.
struct LocatedEntry {
  RowPointer loc;
  const CarvedIndexEntry* entry = nullptr;
};

/// One index's side of stage 2: its table's located records and the
/// entries on its reachable leaves, both in carve order.
struct IndexMatchInput {
  const CarvedIndexMeta* meta = nullptr;
  const TableSchema* schema = nullptr;
  std::vector<LocatedRecord> records;
  std::vector<LocatedEntry> entries;
};

/// Gathers `meta`'s match input from `carve`, or nullopt when the index is
/// dropped or its table schema or key columns do not resolve (not audited).
/// Entries on leaves unreachable from the root are residue of a rebuild,
/// not evidence of tampering, and are left out.
std::optional<IndexMatchInput> GatherMatchInput(const CarveResult& carve,
                                                const CarvedIndexMeta& meta);

/// Reports `record` as extraneous unless an entry covers it, it is
/// delete-marked, or its key is entirely NULL.
void ReportRecord(const IndexMatchInput& index, const LocatedRecord& record,
                  bool covered, AuditReport* report);

/// Reports `entry` as a dangling pointer when no record sits at its
/// location (`target` null), or as a value mismatch when its key disagrees
/// with the live record there.
void ReportEntry(const IndexMatchInput& index, const LocatedEntry& entry,
                 const LocatedRecord* target, AuditReport* report);

}  // namespace auditor_internal

}  // namespace dbfa

#endif  // DBFA_AUDITOR_STORAGE_AUDITOR_H_
