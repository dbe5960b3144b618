#include "metaquery/exec_common.h"

#include <algorithm>

#include "common/strings.h"

namespace dbfa::metaquery_internal {

void FrameSet::Add(const std::string& qualifier,
                   const std::vector<std::string>& cols) {
  frames.push_back({qualifier, cols, width});
  width += cols.size();
}

std::optional<size_t> FrameSet::Resolve(std::string_view name) const {
  std::string_view qualifier;
  std::string_view bare = name;
  size_t dot = name.find('.');
  if (dot != std::string_view::npos) {
    qualifier = name.substr(0, dot);
    bare = name.substr(dot + 1);
  }
  for (const Frame& f : frames) {
    if (!qualifier.empty() && !EqualsIgnoreCase(f.qualifier, qualifier)) {
      continue;
    }
    for (size_t i = 0; i < f.cols.size(); ++i) {
      if (EqualsIgnoreCase(f.cols[i], bare)) return f.offset + i;
    }
  }
  return std::nullopt;
}

void Accumulator::Add(const Value& v) {
  if (v.is_null()) return;
  ++count;
  if (v.type() == ValueType::kInt && sum_is_int) {
    isum += v.as_int();
  } else if (v.type() == ValueType::kInt || v.type() == ValueType::kDouble) {
    if (sum_is_int) {
      dsum = static_cast<double>(isum);
      sum_is_int = false;
    }
    dsum += v.NumericValue();
  }
  if (!has_minmax) {
    min_v = v;
    max_v = v;
    has_minmax = true;
  } else {
    if (Value::Compare(v, min_v) < 0) min_v = v;
    if (Value::Compare(v, max_v) > 0) max_v = v;
  }
}

Value Accumulator::Final(sql::AggFunc f) const {
  switch (f) {
    case sql::AggFunc::kCount:
      return Value::Int(count);
    case sql::AggFunc::kSum:
      if (count == 0) return Value::Null();
      return sum_is_int ? Value::Int(isum) : Value::Real(dsum);
    case sql::AggFunc::kMin:
      return has_minmax ? min_v : Value::Null();
    case sql::AggFunc::kMax:
      return has_minmax ? max_v : Value::Null();
    case sql::AggFunc::kAvg: {
      if (count == 0) return Value::Null();
      double total = sum_is_int ? static_cast<double>(isum) : dsum;
      return Value::Real(total / static_cast<double>(count));
    }
    case sql::AggFunc::kNone:
      break;
  }
  return Value::Null();
}

// ---- Join ----------------------------------------------------------------

FlatJoinTable::FlatJoinTable(const std::vector<Record>& rows, size_t key_idx,
                             ThreadPool* pool)
    : rows_(&rows), key_idx_(key_idx) {
  // At least two slots per row keeps chains short.
  size_t slots = 2;
  while (slots < 2 * rows.size()) slots <<= 1;
  for (size_t s = slots; s > 1; s >>= 1) --shift_;
  head_.assign(slots, kEnd);
  next_.resize(rows.size());
  hashes_.resize(rows.size());
  auto hash_morsel = [&](size_t m) {
    size_t end = std::min(rows.size(), (m + 1) * kMorselRows);
    // dbfa:hot-loop-begin -- build-side key hashing, once per right row
    for (size_t i = m * kMorselRows; i < end; ++i) {
      const Record& r = rows[i];
      if (key_idx < r.size()) hashes_[i] = r[key_idx].Hash();
    }
    // dbfa:hot-loop-end
  };
  size_t morsels = MorselCount(rows.size());
  if (pool != nullptr && morsels > 1) {
    pool->ParallelFor(morsels, hash_morsel);
  } else {
    for (size_t m = 0; m < morsels; ++m) hash_morsel(m);
  }
  // Linking back to front leaves every chain in ascending row order.
  for (size_t i = rows.size(); i-- > 0;) {
    const Record& r = rows[i];
    if (key_idx >= r.size() || r[key_idx].is_null()) continue;
    uint32_t& head = head_[Slot(hashes_[i])];
    next_[i] = head;
    head = static_cast<uint32_t>(i);
  }
}

Status ResolveJoinColumns(const FrameSet& frames, const FrameSet& right_frame,
                          const sql::JoinClause& join, size_t* left_idx,
                          size_t* right_idx) {
  // Decide which join column belongs to the already-joined side.
  std::string left_col = join.left_column;
  std::string right_col = join.right_column;
  if (!frames.Resolve(left_col).has_value()) std::swap(left_col, right_col);
  auto left = frames.Resolve(left_col);
  auto right = right_frame.Resolve(right_col);
  if (!left.has_value() || !right.has_value()) {
    return Status::InvalidArgument(
        StrFormat("cannot resolve join condition %s = %s",
                  join.left_column.c_str(), join.right_column.c_str()));
  }
  *left_idx = *left;
  *right_idx = *right;
  return Status::Ok();
}

// ---- Aggregation ---------------------------------------------------------

Result<AggPlan> PlanAggregation(const sql::SelectStmt& stmt,
                                const FrameSet& frames,
                                std::vector<std::string>* out_columns) {
  for (const sql::SelectItem& item : stmt.items) {
    if (item.star && item.agg == sql::AggFunc::kNone) {
      return Status::InvalidArgument("SELECT * with aggregates");
    }
    out_columns->push_back(item.OutputName());
  }
  AggPlan plan;
  plan.key_idx.reserve(stmt.group_by.size());
  for (const std::string& col : stmt.group_by) {
    auto idx = frames.Resolve(col);
    if (!idx.has_value()) {
      return Status::InvalidArgument("GROUP BY unknown column: " + col);
    }
    plan.key_idx.push_back(*idx);
  }
  plan.items.resize(stmt.items.size());
  for (size_t i = 0; i < stmt.items.size(); ++i) {
    if (stmt.items[i].expr != nullptr) {
      DBFA_ASSIGN_OR_RETURN(
          plan.items[i],
          sql::BindExpr(*stmt.items[i].expr, [&frames](std::string_view name) {
            return frames.Resolve(name);
          }));
    }
  }
  return plan;
}

Status MakeGroupKey(const sql::SelectStmt& stmt, const AggPlan& plan,
                    const Record& row, Record* key) {
  key->clear();
  key->reserve(plan.key_idx.size());
  for (size_t k = 0; k < plan.key_idx.size(); ++k) {
    if (plan.key_idx[k] >= row.size()) {
      return Status::InvalidArgument("GROUP BY unknown column: " +
                                     stmt.group_by[k]);
    }
    key->push_back(row[plan.key_idx[k]]);
  }
  return Status::Ok();
}

Status AccumulateRow(const sql::SelectStmt& stmt, const AggPlan& plan,
                     const Record& row, std::vector<Accumulator>* accs) {
  for (size_t i = 0; i < stmt.items.size(); ++i) {
    const sql::SelectItem& item = stmt.items[i];
    if (item.agg == sql::AggFunc::kNone) continue;
    if (item.star) {
      (*accs)[i].Add(Value::Int(1));  // COUNT(*)
      continue;
    }
    DBFA_ASSIGN_OR_RETURN(Value v, sql::EvalBound(*plan.items[i], row));
    (*accs)[i].Add(v);
  }
  return Status::Ok();
}

Status EmitGroupRow(const sql::SelectStmt& stmt, const AggPlan& plan,
                    const Record& rep, const std::vector<Accumulator>& accs,
                    Record* out) {
  out->clear();
  out->reserve(stmt.items.size());
  for (size_t i = 0; i < stmt.items.size(); ++i) {
    const sql::SelectItem& item = stmt.items[i];
    if (item.agg != sql::AggFunc::kNone) {
      out->push_back(accs[i].Final(item.agg));
    } else {
      // Non-aggregate items take their value from the group's
      // representative row (valid for grouped columns).
      DBFA_ASSIGN_OR_RETURN(Value v, sql::EvalBound(*plan.items[i], rep));
      out->push_back(std::move(v));
    }
  }
  return Status::Ok();
}

Status EmitEmptyAggregateRow(const sql::SelectStmt& stmt, Record* out) {
  out->clear();
  Accumulator empty;
  for (const sql::SelectItem& item : stmt.items) {
    if (item.agg == sql::AggFunc::kNone) {
      return Status::InvalidArgument(
          "non-aggregate item over empty ungrouped input");
    }
    out->push_back(empty.Final(item.agg));
  }
  return Status::Ok();
}

// ---- Projection ----------------------------------------------------------

Result<ProjectionPlan> PlanProjection(const sql::SelectStmt& stmt,
                                      const FrameSet& frames,
                                      std::vector<std::string>* out_columns) {
  ProjectionPlan plan;
  for (const sql::SelectItem& item : stmt.items) {
    if (item.star) {
      for (const FrameSet::Frame& f : frames.frames) {
        for (const std::string& c : f.cols) out_columns->push_back(c);
      }
      plan.exprs.push_back(nullptr);
    } else {
      out_columns->push_back(item.OutputName());
      DBFA_ASSIGN_OR_RETURN(
          sql::BoundExprPtr bound,
          sql::BindExpr(*item.expr, [&frames](std::string_view name) {
            return frames.Resolve(name);
          }));
      plan.exprs.push_back(std::move(bound));
    }
  }
  return plan;
}

// dbfa:hot-loop-begin -- projection, once per output row
Status ProjectRow(const ProjectionPlan& plan, const Record& row, Record* out) {
  out->clear();
  for (const sql::BoundExprPtr& e : plan.exprs) {
    if (e == nullptr) {
      out->insert(out->end(), row.begin(), row.end());
    } else {
      DBFA_ASSIGN_OR_RETURN(Value v, sql::EvalBound(*e, row));
      out->push_back(std::move(v));
    }
  }
  return Status::Ok();
}
// dbfa:hot-loop-end

// ---- ORDER BY / LIMIT ----------------------------------------------------

Status ResolveOrderKeys(const sql::SelectStmt& stmt,
                        const std::vector<std::string>& columns,
                        std::vector<int>* idx, std::vector<bool>* desc) {
  for (const sql::OrderKey& key : stmt.order_by) {
    int found = -1;
    for (size_t i = 0; i < columns.size(); ++i) {
      if (EqualsIgnoreCase(columns[i], key.column)) {
        found = static_cast<int>(i);
        break;
      }
    }
    if (found < 0) {
      return Status::InvalidArgument("ORDER BY unknown column: " + key.column);
    }
    idx->push_back(found);
    desc->push_back(key.descending);
  }
  return Status::Ok();
}

bool OrderKeyLess(const Record& a, const Record& b,
                  const std::vector<int>& idx, const std::vector<bool>& desc) {
  for (size_t k = 0; k < idx.size(); ++k) {
    int c = Value::Compare(a[idx[k]], b[idx[k]]);
    if (c != 0) return desc[k] ? c > 0 : c < 0;
  }
  return false;
}

}  // namespace dbfa::metaquery_internal
