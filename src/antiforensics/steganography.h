// Database steganography (Section II-D, Figure 3): hide a record inside
// legitimate table storage by writing it at byte level with values that
// violate declared constraints — a VARCHAR longer than its domain, foreign
// keys of -1 that no join ever matches, NULL primary-key components absent
// from the PK index. No legitimate SQL surfaces it (every SSBM query
// joins), yet the carver retrieves it trivially.
#ifndef DBFA_ANTIFORENSICS_STEGANOGRAPHY_H_
#define DBFA_ANTIFORENSICS_STEGANOGRAPHY_H_

#include <string>
#include <utility>
#include <vector>

#include "core/carver.h"
#include "engine/database.h"

namespace dbfa {

/// A constraint violation carried by a hidden (or tampered) record.
struct ConstraintViolation {
  std::string column;
  std::string what;  // "VARCHAR(10) holds 11 chars", "FK -1 unmatched", ...
};

struct HiddenRecord {
  /// A record of `carve`, holding its pool.
  HiddenRecord(const CarveResult& carve, CarvedRecord record,
               std::vector<ConstraintViolation> violations)
      : record(std::move(record)),
        violations(std::move(violations)),
        string_pools(carve.string_pool) {}

  CarvedRecord record;
  std::vector<ConstraintViolation> violations;
  /// Keeps `record`'s values readable after the carve is gone
  /// (docs/columnar_memory.md).
  StringPoolSet string_pools;
};

class Steganographer {
 public:
  explicit Steganographer(CarverConfig config);

  /// Writes `values` into a page of `table` in a live database at byte
  /// level: no audit-log entry, no index maintenance, no constraint
  /// checks. The record is real storage content (full scans see it), but
  /// joins and PK-index lookups never return it if the values were chosen
  /// per the paper's recipe.
  Status HideInDatabase(Database* db, const std::string& table,
                        const Record& values) const;

  /// Retrieval: carve the image and return every *active* record whose
  /// values violate the declared constraints of its reconstructed schema
  /// (domain length, NULL PK components, unmatched foreign keys).
  Result<std::vector<HiddenRecord>> ExtractHidden(ByteView image) const;

 private:
  CarverConfig config_;
  PageFormatter fmt_;
};

/// Checks one record against a schema's declared constraints; `carve`
/// provides referenced tables for FK validation.
std::vector<ConstraintViolation> FindViolations(const CarveResult& carve,
                                                const TableSchema& schema,
                                                const Record& values);

}  // namespace dbfa

#endif  // DBFA_ANTIFORENSICS_STEGANOGRAPHY_H_
