// Cache-aware query reordering (Section IV-c, future work — built):
// "randomly ordered queries typically result in non-optimal buffer cache
// utilization ... our future work leverages [RAM analysis] to create a
// method that analyzes RAM and reorders queries to achieve the most
// efficient I/O."
//
// Given a batch of pending SELECT statements and the current buffer-cache
// contents, the reorderer estimates the page set each query touches (full
// table scan or index scan, as the engine's planner Database::ChooseIndex
// picks it), then greedily schedules the query with the fewest uncached
// pages next, simulating cache evolution as it goes.
#ifndef DBFA_PLI_QUERY_REORDER_H_
#define DBFA_PLI_QUERY_REORDER_H_

#include <string>
#include <vector>

#include "engine/database.h"

namespace dbfa {

struct ReorderPlan {
  /// Execution order as indexes into the input query list.
  std::vector<size_t> order;
  /// Estimated page misses executing in the given order vs. reordered.
  size_t estimated_misses_original = 0;
  size_t estimated_misses_reordered = 0;

  std::string ToString() const;
};

class QueryReorderer {
 public:
  /// Plans an order for `queries` (SELECT statements over `db`'s tables),
  /// starting from the pool's current contents. Pure analysis: nothing is
  /// executed.
  static Result<ReorderPlan> Plan(Database* db,
                                  const std::vector<std::string>& queries);
};

}  // namespace dbfa

#endif  // DBFA_PLI_QUERY_REORDER_H_
