// The naive nested-loop index/record matcher, kept as the oracle for
// StorageAuditor's location-sorted merge (Section III-B) and as the E8
// ablation baseline (bench/bench_storage_auditor.cpp BM_NaiveMatching):
// every index entry is compared with every located record of its table.
// It gathers the same inputs and applies the same finding rules as
// AuditCarve (auditor_internal); only the pairing differs. Test-only.
#ifndef DBFA_TESTS_ORACLES_AUDITOR_REFERENCE_H_
#define DBFA_TESTS_ORACLES_AUDITOR_REFERENCE_H_

#include "auditor/storage_auditor.h"

namespace dbfa::auditor_internal {

/// The same findings (as a multiset; the order differs) and the same
/// checked counts as StorageAuditor::AuditCarve(carve). Stage 1's B-Tree
/// checks are not run: `index_issues` stays empty.
AuditReport AuditCarveReference(const CarveResult& carve);

}  // namespace dbfa::auditor_internal

#endif  // DBFA_TESTS_ORACLES_AUDITOR_REFERENCE_H_
