#include "oracles/reference_executor.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <utility>

#include "common/strings.h"

namespace dbfa::metaquery_internal {
namespace {

/// Per-row binding that re-resolves names on every lookup — the cost the
/// engine's plan-time binding removes.
class FrameBinding : public sql::ColumnBinding {
 public:
  FrameBinding(const FrameSet& frames, const Record& row)
      : frames_(frames), row_(row) {}

  std::optional<Value> Lookup(std::string_view name) const override {
    auto idx = frames_.Resolve(name);
    if (!idx.has_value() || *idx >= row_.size()) return std::nullopt;
    return row_[*idx];
  }

 private:
  const FrameSet& frames_;
  const Record& row_;
};

struct RecordLess {
  bool operator()(const Record& a, const Record& b) const {
    return CompareRecords(a, b) < 0;
  }
};

/// Applies ORDER BY (resolved against the output column names) with a
/// stable sort, then LIMIT, to a finished result table.
Status SortAndLimit(const sql::SelectStmt& stmt,
                    std::vector<std::string>* columns,
                    std::vector<Record>* rows) {
  if (!stmt.order_by.empty()) {
    std::vector<int> idx;
    std::vector<bool> desc;
    DBFA_RETURN_IF_ERROR(ResolveOrderKeys(stmt, *columns, &idx, &desc));
    std::stable_sort(rows->begin(), rows->end(),
                     [&](const Record& a, const Record& b) {
                       return OrderKeyLess(a, b, idx, desc);
                     });
  }
  if (stmt.limit >= 0 && rows->size() > static_cast<size_t>(stmt.limit)) {
    rows->resize(static_cast<size_t>(stmt.limit));
  }
  return Status::Ok();
}

}  // namespace

Result<QueryTable> ExecuteReference(const sql::SelectStmt& stmt,
                                    const RelationResolver& lookup) {
  // 1. FROM + JOINs -> frame-concatenated working rows.
  DBFA_ASSIGN_OR_RETURN(auto base, lookup(stmt.from.table));
  FrameSet frames;
  frames.Add(stmt.from.EffectiveName(), base->columns());
  std::vector<Record> rows;
  DBFA_RETURN_IF_ERROR(base->Scan([&](const Record& r) {
    rows.push_back(r);
    return Status::Ok();
  }));

  for (const sql::JoinClause& join : stmt.joins) {
    DBFA_ASSIGN_OR_RETURN(auto right, lookup(join.table.table));
    FrameSet right_frame;
    right_frame.Add(join.table.EffectiveName(), right->columns());
    // Decide which join column belongs to the already-joined side.
    std::string left_col = join.left_column;
    std::string right_col = join.right_column;
    if (!frames.Resolve(left_col).has_value()) std::swap(left_col, right_col);
    auto left_idx = frames.Resolve(left_col);
    auto right_idx = right_frame.Resolve(right_col);
    if (!left_idx.has_value() || !right_idx.has_value()) {
      return Status::InvalidArgument(
          StrFormat("cannot resolve join condition %s = %s",
                    join.left_column.c_str(), join.right_column.c_str()));
    }
    // Build hash buckets over the right relation, in scan order.
    std::unordered_map<size_t, std::vector<Record>> hash;
    DBFA_RETURN_IF_ERROR(right->Scan([&](const Record& r) {
      if (*right_idx < r.size()) {
        const Value& key = r[*right_idx];
        if (!key.is_null()) hash[key.Hash()].push_back(r);
      }
      return Status::Ok();
    }));
    std::vector<Record> joined;
    for (const Record& left_row : rows) {
      if (*left_idx >= left_row.size()) continue;
      const Value& key = left_row[*left_idx];
      if (key.is_null()) continue;
      auto it = hash.find(key.Hash());
      if (it == hash.end()) continue;
      for (const Record& right_row : it->second) {
        if (Value::Compare(right_row[*right_idx], key) != 0) continue;
        Record combined = left_row;
        combined.insert(combined.end(), right_row.begin(), right_row.end());
        joined.push_back(std::move(combined));
      }
    }
    rows = std::move(joined);
    frames.Add(join.table.EffectiveName(), right->columns());
  }

  // 2. WHERE.
  if (stmt.where != nullptr) {
    std::vector<Record> kept;
    for (Record& row : rows) {
      FrameBinding binding(frames, row);
      DBFA_ASSIGN_OR_RETURN(bool pass,
                            sql::EvalPredicate(*stmt.where, binding));
      if (pass) kept.push_back(std::move(row));
    }
    rows = std::move(kept);
  }

  QueryTable out;
  // 3a. Aggregation path.
  if (stmt.HasAggregates() || !stmt.group_by.empty()) {
    for (const sql::SelectItem& item : stmt.items) {
      if (item.star && item.agg == sql::AggFunc::kNone) {
        return Status::InvalidArgument("SELECT * with aggregates");
      }
      out.columns.push_back(item.OutputName());
    }
    std::map<Record, std::pair<Record, std::vector<Accumulator>>, RecordLess>
        groups;  // key -> (first row, accumulators)
    for (const Record& row : rows) {
      FrameBinding binding(frames, row);
      Record key;
      for (const std::string& col : stmt.group_by) {
        auto v = binding.Lookup(col);
        if (!v.has_value()) {
          return Status::InvalidArgument("GROUP BY unknown column: " + col);
        }
        key.push_back(*v);
      }
      auto it = groups.find(key);
      if (it == groups.end()) {
        it = groups
                 .emplace(std::move(key),
                          std::make_pair(row, std::vector<Accumulator>(
                                                  stmt.items.size())))
                 .first;
      }
      for (size_t i = 0; i < stmt.items.size(); ++i) {
        const sql::SelectItem& item = stmt.items[i];
        if (item.agg == sql::AggFunc::kNone) continue;
        if (item.star) {
          it->second.second[i].Add(Value::Int(1));  // COUNT(*)
          continue;
        }
        DBFA_ASSIGN_OR_RETURN(Value v, sql::Eval(*item.expr, binding));
        it->second.second[i].Add(v);
      }
    }
    if (groups.empty() && stmt.group_by.empty()) {
      // Aggregates over an empty input produce one row.
      Record row;
      Accumulator empty;
      for (const sql::SelectItem& item : stmt.items) {
        if (item.agg == sql::AggFunc::kNone) {
          return Status::InvalidArgument(
              "non-aggregate item over empty ungrouped input");
        }
        row.push_back(empty.Final(item.agg));
      }
      out.rows.push_back(std::move(row));
    }
    for (auto& [key, group] : groups) {
      Record row;
      FrameBinding binding(frames, group.first);
      for (size_t i = 0; i < stmt.items.size(); ++i) {
        const sql::SelectItem& item = stmt.items[i];
        if (item.agg != sql::AggFunc::kNone) {
          row.push_back(group.second[i].Final(item.agg));
        } else {
          // Non-aggregate items take their value from the group's
          // representative row (valid for grouped columns).
          DBFA_ASSIGN_OR_RETURN(Value v, sql::Eval(*item.expr, binding));
          row.push_back(std::move(v));
        }
      }
      out.rows.push_back(std::move(row));
    }
    DBFA_RETURN_IF_ERROR(SortAndLimit(stmt, &out.columns, &out.rows));
    return out;
  }

  // 3b. Plain projection.
  std::vector<const sql::Expr*> exprs;
  for (const sql::SelectItem& item : stmt.items) {
    if (item.star) {
      for (const FrameSet::Frame& f : frames.frames) {
        for (const std::string& c : f.cols) out.columns.push_back(c);
      }
      exprs.push_back(nullptr);
    } else {
      out.columns.push_back(item.OutputName());
      exprs.push_back(item.expr.get());
    }
  }
  for (const Record& row : rows) {
    Record projected;
    FrameBinding binding(frames, row);
    for (const sql::Expr* e : exprs) {
      if (e == nullptr) {
        projected.insert(projected.end(), row.begin(), row.end());
      } else {
        DBFA_ASSIGN_OR_RETURN(Value v, sql::Eval(*e, binding));
        projected.push_back(std::move(v));
      }
    }
    out.rows.push_back(std::move(projected));
  }
  DBFA_RETURN_IF_ERROR(SortAndLimit(stmt, &out.columns, &out.rows));
  return out;
}

}  // namespace dbfa::metaquery_internal
