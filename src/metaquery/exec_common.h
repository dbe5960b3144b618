// Internals of the streaming meta-query engine (spill_executor.cc): the
// per-row semantics of join probing, group accumulation, group emission,
// projection and ORDER BY comparison. The test-only tuple-at-a-time
// reference executor (tests/oracles/) reuses the frame namespace, the
// accumulator and the ORDER BY comparison. Not part of the public metaquery
// API.
#ifndef DBFA_METAQUERY_EXEC_COMMON_H_
#define DBFA_METAQUERY_EXEC_COMMON_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "metaquery/relation.h"
#include "metaquery/session.h"
#include "sql/bound_expr.h"
#include "sql/statement.h"

namespace dbfa::metaquery_internal {

/// Resolves a relation name for the executors (bound to
/// MetaQuerySession::Lookup).
using RelationResolver =
    std::function<Result<std::shared_ptr<Relation>>(const std::string&)>;

/// Column namespace of the rows flowing through the executor: one frame per
/// joined relation, rows are frame-concatenated records.
struct FrameSet {
  struct Frame {
    std::string qualifier;  // alias or table name
    std::vector<std::string> cols;
    size_t offset = 0;
  };
  std::vector<Frame> frames;
  size_t width = 0;

  void Add(const std::string& qualifier, const std::vector<std::string>& cols);

  /// Resolves "name" or "qualifier.name" to a global column index.
  std::optional<size_t> Resolve(std::string_view name) const;
};

/// Streaming aggregate state for one SELECT item.
struct Accumulator {
  int64_t count = 0;
  bool sum_is_int = true;
  int64_t isum = 0;
  double dsum = 0;
  Value min_v;
  Value max_v;
  bool has_minmax = false;

  /// Folds one value in. Every executor folds a group's rows in input
  /// order, so double sums associate identically everywhere
  /// (docs/metaquery_engine.md).
  void Add(const Value& v);

  Value Final(sql::AggFunc f) const;
};

// ---- Hash wrappers ------------------------------------------------------

struct RecordHasher {
  size_t operator()(const Record& r) const { return HashRecord(r); }
};
struct RecordEq {
  bool operator()(const Record& a, const Record& b) const {
    return CompareRecords(a, b) == 0;
  }
};

// ---- Morsels ------------------------------------------------------------

/// Rows per morsel: the unit in which a materialized relation's scan, and
/// the per-row stages behind it, run on the worker pool.
inline constexpr size_t kMorselRows = 2048;

/// Number of morsels covering `rows` rows.
inline size_t MorselCount(size_t rows) {
  return (rows + kMorselRows - 1) / kMorselRows;
}

// ---- Join ----------------------------------------------------------------

/// The join's build side: a chained hash table over the right relation's
/// own rows, which are indexed in place and never copied. head[] holds the
/// first row of each hash slot's chain and next[] links the rows of one
/// chain in ascending row (right scan) order. Rows whose key is NULL, or
/// that are too short to hold the key column, are left out.
class FlatJoinTable {
 public:
  /// Indexes `rows` — which must outlive the table — on column `key_idx`.
  /// Key hashes are computed per morsel on `pool` (inline when null).
  FlatJoinTable(const std::vector<Record>& rows, size_t key_idx,
                ThreadPool* pool);

  // dbfa:hot-loop-begin -- chain walk, once per probe
  /// Calls fn(right_row) for every row whose key equals `key` under
  /// Value::Compare, in right scan order, stopping at the first non-OK
  /// status.
  template <typename Fn>
  Status ForEachMatch(const Value& key, Fn&& fn) const {
    uint64_t h = key.Hash();
    for (uint32_t i = head_[Slot(h)]; i != kEnd; i = next_[i]) {
      if (hashes_[i] != h) continue;
      const Record& row = (*rows_)[i];
      if (Value::Compare(row[key_idx_], key) != 0) continue;
      DBFA_RETURN_IF_ERROR(fn(row));
    }
    return Status::Ok();
  }
  // dbfa:hot-loop-end

 private:
  static constexpr uint32_t kEnd = UINT32_MAX;

  // Fibonacci hashing: Value::Hash of an int is the int itself, so the
  // slot takes the high bits of a multiplicative mix.
  size_t Slot(uint64_t h) const {
    return static_cast<size_t>((h * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  const std::vector<Record>* rows_;
  size_t key_idx_;
  int shift_ = 64;
  std::vector<uint32_t> head_;
  std::vector<uint32_t> next_;
  std::vector<uint64_t> hashes_;
};

/// Resolves which side of `join` belongs to the already-joined frames and
/// which to the incoming right frame.
Status ResolveJoinColumns(const FrameSet& frames, const FrameSet& right_frame,
                          const sql::JoinClause& join, size_t* left_idx,
                          size_t* right_idx);

// dbfa:hot-loop-begin -- join probe, once per left row
/// Probes one left row against the table; for every surviving match calls
/// emit(combined_record). When `fused_where` is non-null it is evaluated on
/// a zero-copy left++right view before materializing the combined record.
/// Match order is right scan order within the key — the contract the
/// reference executor shares.
template <typename Emit>
Status ProbeJoinRow(const Record& left_row, size_t left_idx,
                    const FlatJoinTable& table,
                    const sql::BoundExpr* fused_where, Emit&& emit) {
  if (left_idx >= left_row.size()) return Status::Ok();
  const Value& key = left_row[left_idx];
  if (key.is_null()) return Status::Ok();
  return table.ForEachMatch(key, [&](const Record& right_row) -> Status {
    if (fused_where != nullptr) {
      DBFA_ASSIGN_OR_RETURN(
          bool pass,
          sql::EvalBoundPredicate(*fused_where,
                                  sql::JoinRowView{&left_row, &right_row}));
      if (!pass) return Status::Ok();
    }
    Record combined;
    combined.reserve(left_row.size() + right_row.size());
    combined.insert(combined.end(), left_row.begin(), left_row.end());
    combined.insert(combined.end(), right_row.begin(), right_row.end());
    return emit(std::move(combined));
  });
}
// dbfa:hot-loop-end

// ---- Aggregation ---------------------------------------------------------

/// Plan-time aggregation state: output column names, bound GROUP BY key
/// indices, bound item expressions (null entries for expression-less items
/// such as COUNT(*)).
struct AggPlan {
  std::vector<size_t> key_idx;
  std::vector<sql::BoundExprPtr> items;
};

/// Validates the SELECT list, emits output column names, resolves GROUP BY
/// keys and binds item expressions — the shared aggregation "plan" step.
Result<AggPlan> PlanAggregation(const sql::SelectStmt& stmt,
                                const FrameSet& frames,
                                std::vector<std::string>* out_columns);

/// Extracts the GROUP BY key of `row` (with the same unknown-column error
/// the reference executor produces for rows narrower than the key).
Status MakeGroupKey(const sql::SelectStmt& stmt, const AggPlan& plan,
                    const Record& row, Record* key);

/// Folds one row into the per-item accumulators (sized to stmt.items).
Status AccumulateRow(const sql::SelectStmt& stmt, const AggPlan& plan,
                     const Record& row, std::vector<Accumulator>* accs);

/// Produces the output row of one finished group: aggregates finalize,
/// non-aggregate items evaluate against the group's representative row.
Status EmitGroupRow(const sql::SelectStmt& stmt, const AggPlan& plan,
                    const Record& rep, const std::vector<Accumulator>& accs,
                    Record* out);

/// The single output row of an aggregate query over empty ungrouped input
/// (errors when a non-aggregate item is present).
Status EmitEmptyAggregateRow(const sql::SelectStmt& stmt, Record* out);

// ---- Projection ----------------------------------------------------------

/// Bound SELECT items for the non-aggregate path; null entries mark '*'
/// expansions. Emits output column names.
struct ProjectionPlan {
  std::vector<sql::BoundExprPtr> exprs;
};

Result<ProjectionPlan> PlanProjection(const sql::SelectStmt& stmt,
                                      const FrameSet& frames,
                                      std::vector<std::string>* out_columns);

Status ProjectRow(const ProjectionPlan& plan, const Record& row, Record* out);

// ---- ORDER BY / LIMIT ----------------------------------------------------

/// Resolves ORDER BY columns against the output column names.
Status ResolveOrderKeys(const sql::SelectStmt& stmt,
                        const std::vector<std::string>& columns,
                        std::vector<int>* idx, std::vector<bool>* desc);

/// Strict-weak ordering for ORDER BY: true when a sorts before b.
bool OrderKeyLess(const Record& a, const Record& b,
                  const std::vector<int>& idx, const std::vector<bool>& desc);

}  // namespace dbfa::metaquery_internal

#endif  // DBFA_METAQUERY_EXEC_COMMON_H_
