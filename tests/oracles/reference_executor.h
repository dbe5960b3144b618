// The tuple-at-a-time meta-query executor, kept as the behavioral oracle
// for the streaming engine (src/metaquery/spill_executor.cc): every name is
// re-resolved per row, evaluation is row-by-row, every stage materializes,
// and aggregation folds each group's rows in input order into an ordered
// map. Test-only — linked into the differential tests, never into a tool.
//
// Join buckets keep right-relation scan order, so duplicate-key matches
// are emitted in the defined order the engine shares.
#ifndef DBFA_TESTS_ORACLES_REFERENCE_EXECUTOR_H_
#define DBFA_TESTS_ORACLES_REFERENCE_EXECUTOR_H_

#include "metaquery/exec_common.h"
#include "metaquery/session.h"
#include "sql/statement.h"

namespace dbfa::metaquery_internal {

Result<QueryTable> ExecuteReference(const sql::SelectStmt& stmt,
                                    const RelationResolver& lookup);

}  // namespace dbfa::metaquery_internal

#endif  // DBFA_TESTS_ORACLES_REFERENCE_EXECUTOR_H_
