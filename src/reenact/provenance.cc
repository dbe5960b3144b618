#include "reenact/provenance.h"

#include <map>
#include <set>
#include <unordered_set>
#include <utility>

#include "common/strings.h"
#include "sql/bound_expr.h"
#include "sql/statement.h"

namespace dbfa {
namespace {

/// Rows of `table` matching `where` (nullptr = all) in the replayed engine
/// right now — the pre-images a DELETE/UPDATE is about to consume.
Result<std::vector<Record>> MatchingRows(Database* db,
                                         const std::string& table,
                                         const sql::ExprPtr& where) {
  const TableInfo* info = db->catalog().Find(table);
  if (info == nullptr) return std::vector<Record>{};
  TableHeap* heap = db->heap(table);
  if (heap == nullptr) return std::vector<Record>{};
  sql::BoundExprPtr bound;
  if (where != nullptr) {
    sql::ColumnResolver resolver = sql::MakeSchemaResolver(
        info->schema.ColumnNames(), info->schema.name);
    DBFA_ASSIGN_OR_RETURN(bound, sql::BindExpr(*where, resolver));
  }
  std::vector<Record> rows;
  Status scan = heap->Scan([&](RowPointer, const Record& r) {
    if (bound != nullptr) {
      DBFA_ASSIGN_OR_RETURN(bool match, sql::EvalBoundPredicate(*bound, r));
      if (!match) return Status::Ok();
    }
    rows.push_back(r);
    return Status::Ok();
  });
  DBFA_RETURN_IF_ERROR(scan);
  return rows;
}

/// Carved evidence for one table: display-rendered record sets. Rendering
/// through RecordToString makes replayed and carved rows comparable without
/// caring about physical representation.
struct TableEvidence {
  std::unordered_set<std::string> active;
  std::unordered_set<std::string> deleted;
};

std::map<std::string, TableEvidence> IndexEvidence(const CarveResult& disk) {
  std::map<std::string, TableEvidence> by_table;
  std::map<uint32_t, std::string> names;
  for (const auto& [object_id, schema] : disk.schemas) {
    names[object_id] = ToLower(schema.name);
  }
  for (const CarvedRecord& r : disk.records) {
    if (!r.typed) continue;
    auto it = names.find(r.object_id);
    if (it == names.end()) continue;
    TableEvidence& ev = by_table[it->second];
    if (r.status == RowStatus::kActive) {
      ev.active.insert(RecordToString(r.values));
    } else {
      ev.deleted.insert(RecordToString(r.values));
    }
  }
  return by_table;
}

}  // namespace

const char* EffectKindName(EffectKind kind) {
  switch (kind) {
    case EffectKind::kInsert:
      return "insert";
    case EffectKind::kDelete:
      return "delete";
    case EffectKind::kUpdateBefore:
      return "update-before";
    case EffectKind::kUpdateAfter:
      return "update-after";
  }
  return "?";
}

const char* EvidenceVerdictName(EvidenceVerdict verdict) {
  switch (verdict) {
    case EvidenceVerdict::kConfirmed:
      return "confirmed";
    case EvidenceVerdict::kContradicted:
      return "contradicted";
    case EvidenceVerdict::kMissing:
      return "missing";
    case EvidenceVerdict::kUnverifiable:
      return "unverifiable";
  }
  return "?";
}

std::string RowEffect::ToString() const {
  return StrFormat("%s %s %s", EffectKindName(kind), table.c_str(),
                   RecordToString(values).c_str());
}

std::string TransactionFootprint::ToString() const {
  std::string out = StrFormat(
      "seq %llu ts %lld [%s] %s", static_cast<unsigned long long>(seq),
      static_cast<long long>(timestamp), EvidenceVerdictName(verdict),
      sql.c_str());
  if (!evidence.empty()) out += " — " + evidence;
  for (const RowEffect& w : writes) out += "\n    " + w.ToString();
  return out;
}

std::string ProvenanceReport::ToString() const {
  std::string out = StrFormat(
      "Provenance: %zu transactions (%zu confirmed, %zu contradicted, "
      "%zu missing, %zu unverifiable)\n",
      transactions.size(), confirmed, contradicted, missing, unverifiable);
  for (const TransactionFootprint& t : transactions) {
    out += "  " + t.ToString() + "\n";
  }
  return out;
}

Result<ProvenanceReport> ProvenanceAnalyzer::Analyze(
    const AuditLog& log, const CarveResult& disk) const {
  ProvenanceReport report;

  // Phase 1: replay, capturing each statement's footprint against the
  // claimed state it executes in. The before_statement hook sees the engine
  // immediately before the entry runs, which is the only point where
  // DELETE/UPDATE pre-images exist.
  ReplayOptions replay_options;
  replay_options.before_statement = [&report](Database* db,
                                              const AuditEntry& entry) {
    TransactionFootprint fp;
    fp.seq = entry.seq;
    fp.timestamp = entry.timestamp;
    fp.sql = entry.sql;
    if (const sql::Statement* stmt = entry.statement()) {
      if (const auto* ins = std::get_if<sql::InsertStmt>(stmt)) {
        std::string key = ToLower(ins->table);
        for (const Record& row : ins->rows) {
          fp.writes.push_back({EffectKind::kInsert, key, row});
        }
      } else if (const auto* del = std::get_if<sql::DeleteStmt>(stmt)) {
        std::string key = ToLower(del->table);
        fp.reads.push_back(key);
        DBFA_ASSIGN_OR_RETURN(auto rows, MatchingRows(db, del->table,
                                                      del->where));
        for (Record& row : rows) {
          fp.writes.push_back({EffectKind::kDelete, key, std::move(row)});
        }
      } else if (const auto* up = std::get_if<sql::UpdateStmt>(stmt)) {
        std::string key = ToLower(up->table);
        fp.reads.push_back(key);
        DBFA_ASSIGN_OR_RETURN(auto rows, MatchingRows(db, up->table,
                                                      up->where));
        const TableInfo* info = db->catalog().Find(up->table);
        for (Record& row : rows) {
          Record after = row;
          if (info != nullptr) {
            for (const auto& [column, value] : up->assignments) {
              int index = info->schema.ColumnIndex(column);
              if (index >= 0) after[static_cast<size_t>(index)] = value;
            }
          }
          fp.writes.push_back(
              {EffectKind::kUpdateBefore, key, std::move(row)});
          fp.writes.push_back({EffectKind::kUpdateAfter, key,
                               std::move(after)});
        }
      } else if (const auto* sel = std::get_if<sql::SelectStmt>(stmt)) {
        fp.reads.push_back(ToLower(sel->from.table));
        for (const sql::JoinClause& join : sel->joins) {
          fp.reads.push_back(ToLower(join.table.table));
        }
      }
    }
    report.transactions.push_back(std::move(fp));
    return Status::Ok();
  };
  DBFA_ASSIGN_OR_RETURN(ReenactedState state,
                        reenactor_->Replay(log, replay_options));

  // The hook ran once per replayed entry, in order; fold in the outcomes.
  for (size_t i = 0;
       i < state.outcomes.size() && i < report.transactions.size(); ++i) {
    report.transactions[i].applied = state.outcomes[i].applied;
  }

  // Phase 2: join footprints against carved evidence. A write's *final*
  // effect (still live in the fully-replayed claimed state) must appear in
  // the carved active records; superseded effects should appear as carved
  // delete-marked records where the dialect preserves them.
  std::map<std::string, TableEvidence> evidence = IndexEvidence(disk);
  DBFA_ASSIGN_OR_RETURN(auto final_tables, ActiveRowsByTable(state.db.get()));
  std::map<std::string, std::unordered_set<std::string>> final_rows;
  for (const auto& [table, rows] : final_tables) {
    std::unordered_set<std::string>& set = final_rows[table];
    for (const Record& r : rows) set.insert(RecordToString(r));
  }

  for (TransactionFootprint& fp : report.transactions) {
    if (!fp.applied || fp.writes.empty()) {
      fp.verdict = EvidenceVerdict::kUnverifiable;
      if (!fp.applied) fp.evidence = "statement did not replay";
      ++report.unverifiable;
      continue;
    }
    size_t confirmed_effects = 0;
    std::string contradiction;
    std::string missing;
    for (const RowEffect& w : fp.writes) {
      std::string rendered = RecordToString(w.values);
      auto ev_it = evidence.find(w.table);
      const TableEvidence* ev =
          ev_it == evidence.end() ? nullptr : &ev_it->second;
      bool in_active = ev != nullptr && ev->active.count(rendered) != 0;
      bool in_deleted = ev != nullptr && ev->deleted.count(rendered) != 0;
      bool is_post_image = w.kind == EffectKind::kInsert ||
                           w.kind == EffectKind::kUpdateAfter;
      if (is_post_image) {
        auto fr = final_rows.find(w.table);
        bool still_final = fr != final_rows.end() &&
                           fr->second.count(rendered) != 0;
        if (still_final) {
          if (in_active) {
            ++confirmed_effects;
          } else if (missing.empty()) {
            missing = StrFormat("claimed row %s not carved from %s",
                                rendered.c_str(), w.table.c_str());
          }
        } else if (in_deleted) {
          ++confirmed_effects;  // superseded version survives delete-marked
        }
      } else {  // pre-image of a DELETE or UPDATE
        if (in_active) {
          auto fr = final_rows.find(w.table);
          bool resurrected = fr != final_rows.end() &&
                             fr->second.count(rendered) != 0;
          // Live in storage *and* not supposed to be live at the end:
          // storage contradicts the logged delete/update.
          if (!resurrected && contradiction.empty()) {
            contradiction =
                StrFormat("row %s still active in storage despite logged %s",
                          rendered.c_str(), EffectKindName(w.kind));
          }
        } else if (in_deleted) {
          ++confirmed_effects;
        }
      }
    }
    if (!contradiction.empty()) {
      fp.verdict = EvidenceVerdict::kContradicted;
      fp.evidence = contradiction;
      ++report.contradicted;
    } else if (!missing.empty()) {
      fp.verdict = EvidenceVerdict::kMissing;
      fp.evidence = missing;
      ++report.missing;
    } else if (confirmed_effects > 0) {
      fp.verdict = EvidenceVerdict::kConfirmed;
      fp.evidence = StrFormat("%zu of %zu row effects located in storage",
                              confirmed_effects, fp.writes.size());
      ++report.confirmed;
    } else {
      fp.verdict = EvidenceVerdict::kUnverifiable;
      fp.evidence = "no surviving storage evidence for this statement";
      ++report.unverifiable;
    }
  }
  return report;
}

}  // namespace dbfa
