#include "metaquery/session.h"

#include <algorithm>

#include "common/strings.h"
#include "metaquery/spill_executor.h"

namespace dbfa {

std::string QueryTable::ToText(size_t max_rows) const {
  size_t shown = std::min(rows.size(), max_rows);
  // Pass 1: column widths via DisplayWidth() — no cell is ever rendered to
  // a temporary string in either pass, so the only allocation the whole
  // rendering performs is the single reserve of `out` below.
  std::vector<size_t> widths(columns.size());
  for (size_t i = 0; i < columns.size(); ++i) widths[i] = columns[i].size();
  for (size_t r = 0; r < shown; ++r) {
    for (size_t i = 0; i < columns.size() && i < rows[r].size(); ++i) {
      widths[i] = std::max(widths[i], rows[r][i].DisplayWidth());
    }
  }
  // Every emitted line has the same width; reserve the whole rendering up
  // front so repeated appends never reallocate.
  size_t line = 2;  // trailing "|\n"
  for (size_t w : widths) line += w + 3;
  std::string out;
  out.reserve(line * (shown + 2) + 48);
  // Pass 2: append cells straight into `out` and pad to the column width.
  auto pad_cell = [&](size_t rendered, size_t i) {
    out.append(widths[i] - rendered + 1, ' ');
  };
  for (size_t i = 0; i < columns.size(); ++i) {
    out += "| ";
    out += columns[i];
    pad_cell(columns[i].size(), i);
  }
  out += "|\n|";
  for (size_t i = 0; i < columns.size(); ++i) {
    out.append(widths[i] + 2, '-');
    out += "|";
  }
  out += "\n";
  for (size_t r = 0; r < shown; ++r) {
    for (size_t i = 0; i < columns.size(); ++i) {
      out += "| ";
      size_t before = out.size();
      if (i < rows[r].size()) rows[r][i].AppendDisplayTo(&out);
      pad_cell(out.size() - before, i);
    }
    out += "|\n";
  }
  if (rows.size() > shown) {
    out += StrFormat("... (%zu more rows)\n", rows.size() - shown);
  }
  return out;
}

MetaQuerySession::MetaQuerySession(MetaQueryOptions options)
    : options_(options) {}

void MetaQuerySession::set_options(const MetaQueryOptions& options) {
  if (options.num_threads != options_.num_threads) {
    MutexLock lock(&pool_mu_);
    pool_.reset();
  }
  options_ = options;
}

ThreadPool* MetaQuerySession::PoolForQuery() {
  size_t threads = options_.num_threads == 0 ? ThreadPool::HardwareThreads()
                                             : options_.num_threads;
  if (threads <= 1) return nullptr;
  MutexLock lock(&pool_mu_);
  if (pool_ == nullptr) pool_ = std::make_unique<ThreadPool>(threads);
  return pool_.get();
}

void MetaQuerySession::Register(const std::string& name,
                                std::shared_ptr<Relation> relation) {
  relations_[ToLower(name)] = std::move(relation);
  display_names_[ToLower(name)] = name;
}

Status MetaQuerySession::RegisterCarve(const CarveResult& carve,
                                       const std::string& prefix,
                                       std::vector<std::string>* skipped) {
  for (const auto& [object_id, schema] : carve.schemas) {
    // MakeCarvedRelation resolves by name; a same-named schema carved
    // earlier (dropped-and-recreated table) would silently shadow this
    // object's records.
    if (carve.ObjectIdByName(schema.name) != object_id) {
      if (skipped != nullptr) {
        skipped->push_back(StrFormat(
            "%s (object %u): shadowed by an earlier carved schema with the "
            "same name",
            schema.name.c_str(), object_id));
      }
      continue;
    }
    auto relation = MakeCarvedRelation(carve, schema.name);
    if (!relation.ok()) {
      if (skipped != nullptr) {
        skipped->push_back(StrFormat("%s (object %u): %s",
                                     schema.name.c_str(), object_id,
                                     relation.status().ToString().c_str()));
      }
      continue;
    }
    Register(prefix + schema.name, std::move(relation).value());
  }
  return Status::Ok();
}

Status MetaQuerySession::RegisterDatabase(Database* db) {
  for (const auto& [key, info] : db->catalog().tables()) {
    DBFA_ASSIGN_OR_RETURN(auto relation,
                          MakeLiveRelation(db, info.schema.name));
    Register(info.schema.name, std::move(relation));
  }
  return Status::Ok();
}

std::vector<std::string> MetaQuerySession::RelationNames() const {
  std::vector<std::string> names;
  for (const auto& [key, name] : display_names_) names.push_back(name);
  return names;
}

Result<std::shared_ptr<Relation>> MetaQuerySession::Lookup(
    const std::string& name) const {
  auto it = relations_.find(ToLower(name));
  if (it == relations_.end()) {
    return Status::NotFound("unknown relation: " + name);
  }
  return it->second;
}

Result<QueryTable> MetaQuerySession::Query(const std::string& select_sql) {
  DBFA_ASSIGN_OR_RETURN(sql::Statement stmt, sql::ParseStatement(select_sql));
  auto* select = std::get_if<sql::SelectStmt>(&stmt);
  if (select == nullptr) {
    return Status::InvalidArgument("meta-queries must be SELECT statements");
  }
  return Execute(*select);
}

Result<QueryTable> MetaQuerySession::Execute(const sql::SelectStmt& stmt) {
  metaquery_internal::RelationResolver lookup =
      [this](const std::string& name) { return Lookup(name); };
  SpillStats stats;
  Result<QueryTable> result = metaquery_internal::ExecuteOutOfCore(
      stmt, lookup, options_, PoolForQuery(), &stats);
  MutexLock lock(&stats_mu_);
  last_spill_stats_ = stats;
  return result;
}

SpillStats MetaQuerySession::last_spill_stats() const {
  MutexLock lock(&stats_mu_);
  return last_spill_stats_;
}

}  // namespace dbfa
