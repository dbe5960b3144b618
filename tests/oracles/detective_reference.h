// The name-resolving, tuple-at-a-time Figure-4 matcher, kept as the oracle
// for DbDetective::FindUnattributedModifications: every carved record is
// checked against every parsed log statement for its table, with column
// names resolved per record. Test-only — the production matcher binds each
// predicate once per carved schema instead.
#ifndef DBFA_TESTS_ORACLES_DETECTIVE_REFERENCE_H_
#define DBFA_TESTS_ORACLES_DETECTIVE_REFERENCE_H_

#include <vector>

#include "core/artifacts.h"
#include "detective/dbdetective.h"
#include "engine/audit_log.h"

namespace dbfa::detective_internal {

/// Same findings, in the same order, and the same checked-record counts as
/// DbDetective(&carve, &log).FindUnattributedModifications.
Result<std::vector<UnattributedModification>>
FindUnattributedModificationsReference(const CarveResult& carve,
                                       const AuditLog& log,
                                       size_t* deleted_checked = nullptr,
                                       size_t* active_checked = nullptr);

}  // namespace dbfa::detective_internal

#endif  // DBFA_TESTS_ORACLES_DETECTIVE_REFERENCE_H_
