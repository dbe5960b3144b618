#include "detective/dbdetective.h"

#include <map>
#include <memory>
#include <set>
#include <unordered_map>

#include "common/strings.h"
#include "sql/bound_expr.h"

namespace dbfa {
namespace {

/// A table's indexed log compiled against its carved schema: WHERE
/// predicates bound to flat column indices and UPDATE post-images resolved
/// to column indices. Built once per table object per call (the INSERT
/// rows are already hashed in the index); the record sweep then never
/// resolves a name or walks an unrelated statement.
struct BoundTableLog {
  bool dropped = false;
  bool delete_all = false;  // a logged DELETE/UPDATE without WHERE
  // Predicates that bound successfully; unbindable ones can never match a
  // carved record (a name-resolving evaluator's per-row error) and are
  // dropped at compile time.
  std::vector<sql::BoundExprPtr> delete_preds;  // DELETE + UPDATE pre-image
  // INSERT row lookup (the index's): hash of the record -> candidate rows.
  const std::unordered_multimap<size_t, const Record*>* insert_rows;
  // UPDATE post-images with every SET column resolved.
  std::vector<std::vector<std::pair<size_t, const Value*>>> update_images;
};

BoundTableLog CompileTableLog(const AuditLogIndex::TableLog* tlog,
                              const TableSchema& schema) {
  static const AuditLogIndex::TableLog kUnlogged;
  if (tlog == nullptr) tlog = &kUnlogged;
  BoundTableLog bound;
  bound.dropped = tlog->dropped;
  bound.insert_rows = &tlog->insert_rows;
  std::vector<std::string> columns;
  columns.reserve(schema.columns.size());
  for (const Column& c : schema.columns) columns.push_back(c.name);
  sql::ColumnResolver resolver =
      sql::MakeSchemaResolver(std::move(columns), schema.name);

  auto compile_pred = [&](const sql::ExprPtr& where) {
    if (where == nullptr) {
      bound.delete_all = true;
      return;
    }
    auto b = sql::BindExpr(*where, resolver);
    if (b.ok()) bound.delete_preds.push_back(std::move(b).value());
  };
  for (const sql::DeleteStmt* del : tlog->deletes) compile_pred(del->where);
  // The pre-image of a logged UPDATE is also a legitimate deleted record:
  // its values satisfy the UPDATE's predicate.
  for (const sql::UpdateStmt* up : tlog->updates) compile_pred(up->where);

  for (const sql::UpdateStmt* up : tlog->updates) {
    if (up->assignments.empty()) continue;
    std::vector<std::pair<size_t, const Value*>> image;
    image.reserve(up->assignments.size());
    bool ok = true;
    for (const auto& [col, value] : up->assignments) {
      int ci = schema.ColumnIndex(col);
      if (ci < 0) {
        ok = false;  // unresolvable SET column: post-image never matches
        break;
      }
      image.emplace_back(static_cast<size_t>(ci), &value);
    }
    if (ok) bound.update_images.push_back(std::move(image));
  }
  return bound;
}

}  // namespace

std::string UnattributedModification::Key() const {
  return StrFormat("%d|%s|%s", static_cast<int>(kind), table.c_str(),
                   RecordToString(values).c_str());
}

std::string UnattributedModification::ToString() const {
  return StrFormat("[%s] %s %s at page %u slot %u — %s",
                   kind == Kind::kDelete ? "unattributed delete"
                                         : "unattributed insert",
                   table.c_str(), RecordToString(values).c_str(), page_id,
                   slot, reason.c_str());
}

std::string UnloggedAccess::ToString() const {
  return StrFormat(
      "[unlogged read] %s: %s pattern (%zu data pages, %zu index pages, "
      "longest run %zu) with no logged statement touching the table",
      table.c_str(),
      pattern == Pattern::kFullScan ? "full-scan" : "index-scan",
      cached_data_pages, cached_index_pages, longest_run);
}

std::string DetectiveReport::ToString() const {
  std::string out = StrFormat(
      "DBDetective report: %zu unattributed modifications, %zu unlogged "
      "reads (checked %zu deleted / %zu active records)\n",
      modifications.size(), reads.size(), deleted_records_checked,
      active_records_checked);
  for (const auto& m : modifications) {
    out += "  " + m.ToString() + "\n";
  }
  for (const auto& r : reads) {
    out += "  " + r.ToString() + "\n";
  }
  return out;
}

std::vector<UnattributedModification> DbDetective::MatchModifications(
    const CarveResult& disk, const AuditLogIndex& log,
    size_t* deleted_checked, size_t* active_checked) {
  // Compile each carved table's logged statements once, keyed by the
  // record's object id so the sweep below does no string work at all.
  std::unordered_map<uint32_t, BoundTableLog> bound_logs;
  for (const auto& [object_id, schema] : disk.schemas) {
    bound_logs.emplace(object_id,
                       CompileTableLog(log.Find(schema.name), schema));
  }

  std::vector<UnattributedModification> out;
  size_t deleted_count = 0;
  size_t active_count = 0;
  for (const CarvedRecord& r : disk.records) {
    auto schema_it = disk.schemas.find(r.object_id);
    if (schema_it == disk.schemas.end()) continue;
    const TableSchema& schema = schema_it->second;
    if (!r.typed || r.values.size() != schema.columns.size()) continue;
    const BoundTableLog& tlog = bound_logs.find(r.object_id)->second;

    if (r.status == RowStatus::kDeleted) {
      ++deleted_count;
      bool attributed = tlog.dropped || tlog.delete_all;
      for (const sql::BoundExprPtr& pred : tlog.delete_preds) {
        if (attributed) break;
        auto match = sql::EvalBoundPredicate(*pred, r.values);
        if (match.ok() && *match) attributed = true;
      }
      if (!attributed) {
        out.push_back({UnattributedModification::Kind::kDelete, schema.name,
                       r.values, r.page_id, r.slot,
                       "no logged DELETE/UPDATE predicate matches this "
                       "deleted record"});
      }
    } else {
      ++active_count;
      bool attributed = false;
      auto [row, end] = tlog.insert_rows->equal_range(HashRecord(r.values));
      for (; row != end && !attributed; ++row) {
        attributed = CompareRecords(*row->second, r.values) == 0;
      }
      // The post-image of a logged UPDATE: all SET values must be present.
      for (const auto& image : tlog.update_images) {
        if (attributed) break;
        bool consistent = true;
        for (const auto& [ci, value] : image) {
          if (!(r.values[ci] == *value)) {
            consistent = false;
            break;
          }
        }
        if (consistent) attributed = true;
      }
      if (!attributed) {
        out.push_back({UnattributedModification::Kind::kInsert, schema.name,
                       r.values, r.page_id, r.slot,
                       "no logged INSERT/UPDATE produces this record"});
      }
    }
  }
  if (deleted_checked != nullptr) *deleted_checked = deleted_count;
  if (active_checked != nullptr) *active_checked = active_count;
  return out;
}

namespace {

/// Read analysis (Section III-A): cached access patterns of tables no
/// logged statement names.
std::vector<UnloggedAccess> MatchReads(const CarveResult& disk,
                                       const CarveResult& ram,
                                       const AuditLogIndex& log) {
  std::vector<UnloggedAccess> out;
  // Cached pages per table object (from the RAM carve) and index-page
  // counts attributed to the owning table via carved index metadata.
  std::map<uint32_t, std::set<uint32_t>> cached_data;   // table obj -> pages
  std::map<uint32_t, size_t> cached_index;              // table obj -> count
  for (const CarvedPage& p : ram.pages) {
    if (p.type == PageType::kData) {
      cached_data[p.object_id].insert(p.page_id);
    } else if (p.type == PageType::kIndexLeaf ||
               p.type == PageType::kIndexInternal) {
      auto meta = disk.indexes.find(p.object_id);
      if (meta != disk.indexes.end()) {
        ++cached_index[meta->second.table_object_id];
      }
    }
  }
  // Total data pages per object on disk (for scan-coverage ratios).
  std::map<uint32_t, size_t> disk_pages;
  for (const CarvedPage& p : disk.pages) {
    if (p.type == PageType::kData) ++disk_pages[p.object_id];
  }

  for (const auto& [object_id, schema] : disk.schemas) {
    if (disk.dropped_objects.count(object_id) != 0) continue;
    auto data_it = cached_data.find(object_id);
    size_t data_count =
        data_it == cached_data.end() ? 0 : data_it->second.size();
    size_t index_count = cached_index.count(object_id) != 0
                             ? cached_index[object_id]
                             : 0;
    if (data_count == 0 && index_count == 0) continue;
    if (log.Find(schema.name) != nullptr) continue;  // the log names it

    // Classify the caching pattern.
    size_t longest_run = 0;
    if (data_it != cached_data.end()) {
      size_t run = 0;
      uint32_t prev = 0;
      for (uint32_t page_id : data_it->second) {  // set: ascending
        run = (prev != 0 && page_id == prev + 1) ? run + 1 : 1;
        longest_run = std::max(longest_run, run);
        prev = page_id;
      }
    }
    size_t total = disk_pages.count(object_id) != 0 ? disk_pages[object_id]
                                                    : data_count;
    UnloggedAccess access;
    access.table = schema.name;
    access.cached_data_pages = data_count;
    access.cached_index_pages = index_count;
    access.longest_run = longest_run;
    bool full_scan = total > 0 && longest_run * 10 >= total * 6;
    access.pattern = full_scan && index_count == 0
                         ? UnloggedAccess::Pattern::kFullScan
                         : UnloggedAccess::Pattern::kIndexScan;
    out.push_back(std::move(access));
  }
  return out;
}

}  // namespace

Result<std::vector<UnattributedModification>>
DbDetective::FindUnattributedModifications(size_t* deleted_checked,
                                           size_t* active_checked) const {
  return MatchModifications(*disk_, AuditLogIndex(*log_), deleted_checked,
                            active_checked);
}

Result<std::vector<UnloggedAccess>> DbDetective::FindUnloggedReads() const {
  if (ram_ == nullptr) return std::vector<UnloggedAccess>();
  return MatchReads(*disk_, *ram_, AuditLogIndex(*log_));
}

Result<std::unique_ptr<MetaQuerySession>> DbDetective::MakeMetaQuerySession(
    std::vector<std::string>* skipped) const {
  auto session = std::make_unique<MetaQuerySession>(options_.metaquery);
  if (disk_ != nullptr) {
    DBFA_RETURN_IF_ERROR(session->RegisterCarve(*disk_, "CarvDisk", skipped));
  }
  if (ram_ != nullptr) {
    DBFA_RETURN_IF_ERROR(session->RegisterCarve(*ram_, "CarvRAM", skipped));
  }
  return session;
}

Result<DetectiveReport> DbDetective::Analyze() const {
  DetectiveReport report(*disk_);
  // One index serves both analyses.
  const AuditLogIndex index(*log_);
  report.modifications =
      MatchModifications(*disk_, index, &report.deleted_records_checked,
                         &report.active_records_checked);
  if (ram_ != nullptr) report.reads = MatchReads(*disk_, *ram_, index);
  return report;
}

}  // namespace dbfa
