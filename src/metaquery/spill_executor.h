// The meta-query engine: a streaming pipeline (scan -> join -> filter ->
// aggregate/project -> order/limit) in which every unbounded intermediate
// is governed by MetaQueryOptions::memory_budget_bytes (0 = unbounded).
// Row sets that outgrow the budget move to checksummed spill files
// (common/spill_manager.h); ORDER BY runs an external merge sort, joins
// fall back to a recursive grace hash join, and GROUP BY re-partitions
// oversized group tables.
//
// Results are bit-identical to the tuple-at-a-time reference executor
// (tests/oracles/) at every (budget, thread count) combination — the
// construction is documented in docs/metaquery_engine.md and
// docs/spilling.md and enforced by the differential test.
#ifndef DBFA_METAQUERY_SPILL_EXECUTOR_H_
#define DBFA_METAQUERY_SPILL_EXECUTOR_H_

#include "common/spill_manager.h"
#include "common/thread_pool.h"
#include "metaquery/exec_common.h"
#include "metaquery/session.h"

namespace dbfa::metaquery_internal {

/// Executes `stmt` under options.memory_budget_bytes (0 = unbounded). Spill
/// files live in a unique directory under options.spill_dir (system temp
/// when empty), created on first spill and removed on every exit path.
/// When `stats` is non-null it receives the query's spill counters.
Result<QueryTable> ExecuteOutOfCore(const sql::SelectStmt& stmt,
                                    const RelationResolver& lookup,
                                    const MetaQueryOptions& options,
                                    ThreadPool* pool, SpillStats* stats);

}  // namespace dbfa::metaquery_internal

#endif  // DBFA_METAQUERY_SPILL_EXECUTOR_H_
