#include "oracles/auditor_reference.h"

namespace dbfa::auditor_internal {

AuditReport AuditCarveReference(const CarveResult& carve) {
  AuditReport report(carve);
  for (const auto& [index_object, meta] : carve.indexes) {
    auto index = GatherMatchInput(carve, meta);
    if (!index.has_value()) continue;
    report.records_checked += index->records.size();
    report.pointers_checked += index->entries.size();
    for (const LocatedRecord& lr : index->records) {
      bool covered = false;
      for (const LocatedEntry& le : index->entries) {
        if (le.loc == lr.loc) covered = true;
      }
      ReportRecord(*index, lr, covered, &report);
    }
    for (const LocatedEntry& le : index->entries) {
      const LocatedRecord* target = nullptr;
      for (const LocatedRecord& lr : index->records) {
        if (lr.loc == le.loc) target = &lr;
      }
      ReportEntry(*index, le, target, &report);
    }
  }
  return report;
}

}  // namespace dbfa::auditor_internal
