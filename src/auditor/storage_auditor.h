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
// records — the scalable approach of the paper; a naive quadratic matcher
// is provided as the ablation baseline. Discrepancies:
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

#include <memory>
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
  struct Options {
    /// Use the physical-location-sorted merge matcher (the paper's
    /// scalable approach); false switches to the naive nested-loop
    /// baseline for the ablation benchmark.
    bool sorted_matching = true;
  };

  explicit StorageAuditor(CarverConfig config);
  StorageAuditor(CarverConfig config, Options options);

  /// Carves `image` and audits every table that has at least one index.
  Result<AuditReport> Audit(ByteView image) const;

  /// Audits a pre-carved result (lets benchmarks time matching alone).
  Result<AuditReport> AuditCarve(const CarveResult& carve) const;

 private:
  /// Leaf pages reachable from `root` via carved internal entries.
  std::vector<uint32_t> ReachableLeaves(const CarveResult& carve,
                                        uint32_t index_object,
                                        uint32_t root) const;

  void VerifyBTree(const CarveResult& carve, const CarvedIndexMeta& meta,
                   AuditReport* report) const;

  CarverConfig config_;
  Options options_;
};

}  // namespace dbfa

#endif  // DBFA_AUDITOR_STORAGE_AUDITOR_H_
