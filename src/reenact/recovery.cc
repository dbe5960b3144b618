#include "reenact/recovery.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "common/strings.h"
#include "sql/statement.h"

namespace dbfa {
namespace {

const char* KindName(RowCorruption::Kind kind) {
  switch (kind) {
    case RowCorruption::Kind::kExtraneous:
      return "extraneous";
    case RowCorruption::Kind::kMissing:
      return "missing";
    case RowCorruption::Kind::kAltered:
      return "altered";
  }
  return "?";
}

/// "col = literal" (or "col IS NULL") comparison term.
std::string EqualityTerm(const std::string& column, const Value& value) {
  if (value.is_null()) return column + " IS NULL";
  return column + " = " + value.ToSqlLiteral();
}

/// WHERE clause pinning `record` down by the `key_indexes` columns.
std::string KeyWhere(const TableSchema& schema,
                     const std::vector<size_t>& key_indexes,
                     const Record& record) {
  std::string where;
  for (size_t index : key_indexes) {
    if (!where.empty()) where += " AND ";
    where += EqualityTerm(schema.columns[index].name, record[index]);
  }
  return where;
}

std::string InsertSql(const std::string& table, const Record& record) {
  std::string values;
  for (const Value& v : record) {
    if (!values.empty()) values += ", ";
    values += v.ToSqlLiteral();
  }
  return StrFormat("INSERT INTO %s VALUES (%s)", table.c_str(),
                   values.c_str());
}

/// Primary-key column indexes, or empty when the schema has no usable key
/// (no declared key, or a key column missing from the column list).
std::vector<size_t> KeyIndexes(const TableSchema& schema) {
  std::vector<size_t> indexes;
  for (const std::string& column : schema.primary_key) {
    int index = schema.ColumnIndex(column);
    if (index < 0) return {};
    indexes.push_back(static_cast<size_t>(index));
  }
  return indexes;
}

/// Rendered key of `record` under `key_indexes` (full row when empty).
std::string KeyOf(const std::vector<size_t>& key_indexes,
                  const Record& record) {
  if (key_indexes.empty()) return RecordToString(record);
  Record key;
  key.reserve(key_indexes.size());
  for (size_t index : key_indexes) {
    if (index < record.size()) key.push_back(record[index]);
  }
  return RecordToString(key);
}

}  // namespace

std::string RowCorruption::ToString() const {
  switch (kind) {
    case Kind::kExtraneous:
      return StrFormat("[extraneous] %s %s", table.c_str(),
                       RecordToString(actual).c_str());
    case Kind::kMissing:
      return StrFormat("[missing] %s %s", table.c_str(),
                       RecordToString(claimed).c_str());
    case Kind::kAltered:
      return StrFormat("[altered] %s %s should be %s", table.c_str(),
                       RecordToString(actual).c_str(),
                       RecordToString(claimed).c_str());
  }
  return KindName(kind);
}

std::string RecoveryScript::ToSql() const {
  std::string out;
  for (const std::string& statement : statements) {
    out += statement + ";\n";
  }
  return out;
}

std::string RecoveryScript::ToString() const {
  std::string out =
      StrFormat("RecoveryScript: %zu corrupted rows, %zu statements\n",
                corruptions.size(), statements.size());
  for (const RowCorruption& c : corruptions) {
    out += "  " + c.ToString() + "\n";
  }
  return out;
}

Result<RecoveryScript> RecoveryPlanner::Plan(const AuditLog& log,
                                             const CarveResult& disk) const {
  RecoveryScript script(disk);
  DBFA_ASSIGN_OR_RETURN(ReenactedState state, reenactor_->Replay(log));
  DBFA_ASSIGN_OR_RETURN(auto claimed_tables,
                        ActiveRowsByTable(state.db.get()));

  // Carved reality: typed active records from parsed slots (orphans from
  // the raw scan have no live slot and are not part of the current state).
  std::map<std::string, std::vector<Record>> actual_tables;
  std::map<std::string, const TableSchema*> carved_schema;
  for (const auto& [object_id, schema] : disk.schemas) {
    if (disk.dropped_objects.count(object_id) != 0) continue;
    carved_schema[ToLower(schema.name)] = &schema;
  }
  for (const CarvedRecord& r : disk.records) {
    if (!r.typed || r.status != RowStatus::kActive) continue;
    if (r.slot == CarvedRecord::kOrphanSlot) continue;
    auto schema_it = disk.schemas.find(r.object_id);
    if (schema_it == disk.schemas.end()) continue;
    if (disk.dropped_objects.count(r.object_id) != 0) continue;
    actual_tables[ToLower(schema_it->second.name)].push_back(r.values);
  }

  std::set<std::string> table_keys;
  for (const auto& [key, rows] : claimed_tables) table_keys.insert(key);
  for (const auto& [key, rows] : actual_tables) table_keys.insert(key);

  std::vector<std::string> deletes;
  std::vector<std::string> updates;
  std::vector<std::string> inserts;
  for (const std::string& table : table_keys) {
    // Schema preference: the replayed engine's catalog (it knows the
    // claimed state), falling back to the carved catalog records.
    const TableSchema* schema = nullptr;
    const TableInfo* info = state.db->catalog().Find(table);
    if (info != nullptr) {
      schema = &info->schema;
    } else {
      auto it = carved_schema.find(table);
      if (it != carved_schema.end()) schema = it->second;
    }
    if (schema == nullptr) continue;
    std::vector<size_t> key_indexes = KeyIndexes(*schema);

    // Bucket both sides by key. With a primary key each bucket holds the
    // row version(s) for that key; without one, buckets are full-row
    // multisets and alterations surface as a missing + extraneous pair.
    std::map<std::string, std::vector<Record>> claimed_by_key;
    std::map<std::string, std::vector<Record>> actual_by_key;
    auto claimed_it = claimed_tables.find(table);
    if (claimed_it != claimed_tables.end()) {
      for (const Record& r : claimed_it->second) {
        claimed_by_key[KeyOf(key_indexes, r)].push_back(r);
      }
    }
    auto actual_it = actual_tables.find(table);
    if (actual_it != actual_tables.end()) {
      for (const Record& r : actual_it->second) {
        actual_by_key[KeyOf(key_indexes, r)].push_back(r);
      }
    }

    std::set<std::string> keys;
    for (const auto& [key, rows] : claimed_by_key) keys.insert(key);
    for (const auto& [key, rows] : actual_by_key) keys.insert(key);
    for (const std::string& key : keys) {
      auto c_it = claimed_by_key.find(key);
      auto a_it = actual_by_key.find(key);
      const std::vector<Record>* claimed_rows =
          c_it == claimed_by_key.end() ? nullptr : &c_it->second;
      const std::vector<Record>* actual_rows =
          a_it == actual_by_key.end() ? nullptr : &a_it->second;

      if (claimed_rows != nullptr && actual_rows != nullptr &&
          !key_indexes.empty() && claimed_rows->size() == 1 &&
          actual_rows->size() == 1) {
        const Record& claimed = (*claimed_rows)[0];
        const Record& actual = (*actual_rows)[0];
        if (CompareRecords(claimed, actual) == 0) continue;
        // Same key, different payload: repair in place, touching only the
        // columns tampering altered.
        std::string set_clause;
        for (size_t i = 0; i < schema->columns.size() &&
                           i < claimed.size() && i < actual.size();
             ++i) {
          if (Value::Compare(claimed[i], actual[i]) == 0) continue;
          if (!set_clause.empty()) set_clause += ", ";
          set_clause += schema->columns[i].name + " = " +
                        (claimed[i].is_null() ? std::string("NULL")
                                              : claimed[i].ToSqlLiteral());
        }
        updates.push_back(StrFormat("UPDATE %s SET %s WHERE %s",
                                    schema->name.c_str(), set_clause.c_str(),
                                    KeyWhere(*schema, key_indexes, actual)
                                        .c_str()));
        script.corruptions.push_back(
            {RowCorruption::Kind::kAltered, table, claimed, actual});
        continue;
      }

      // Multiset reconciliation (and the rare duplicate-key case): delete
      // every surplus actual copy, insert every deficit claimed copy.
      size_t claimed_count = claimed_rows == nullptr ? 0
                                                     : claimed_rows->size();
      size_t actual_count = actual_rows == nullptr ? 0 : actual_rows->size();
      if (actual_count > claimed_count) {
        const Record& actual = (*actual_rows)[0];
        // One DELETE removes every copy matched by the full-row (or key)
        // predicate; claimed copies are re-inserted below.
        std::string where =
            key_indexes.empty()
                ? [&] {
                    std::string terms;
                    for (size_t i = 0;
                         i < schema->columns.size() && i < actual.size();
                         ++i) {
                      if (!terms.empty()) terms += " AND ";
                      terms += EqualityTerm(schema->columns[i].name,
                                            actual[i]);
                    }
                    return terms;
                  }()
                : KeyWhere(*schema, key_indexes, actual);
        deletes.push_back(StrFormat("DELETE FROM %s WHERE %s",
                                    schema->name.c_str(), where.c_str()));
        // The delete removed every matched copy; re-insert the claimed ones.
        if (claimed_rows != nullptr) {
          for (const Record& r : *claimed_rows) {
            inserts.push_back(InsertSql(schema->name, r));
          }
        }
        for (size_t i = claimed_rows == nullptr ? 0 : claimed_rows->size();
             i < actual_count; ++i) {
          script.corruptions.push_back({RowCorruption::Kind::kExtraneous,
                                        table, Record{}, (*actual_rows)[0]});
        }
      } else if (claimed_count > actual_count) {
        for (size_t i = actual_count; i < claimed_count; ++i) {
          const Record& claimed = (*claimed_rows)[i];
          inserts.push_back(InsertSql(schema->name, claimed));
          script.corruptions.push_back(
              {RowCorruption::Kind::kMissing, table, claimed, Record{}});
        }
      }
    }
  }

  std::sort(deletes.begin(), deletes.end());
  std::sort(updates.begin(), updates.end());
  std::sort(inserts.begin(), inserts.end());
  script.statements.reserve(deletes.size() + updates.size() + inserts.size());
  for (auto& s : deletes) script.statements.push_back(std::move(s));
  for (auto& s : updates) script.statements.push_back(std::move(s));
  for (auto& s : inserts) script.statements.push_back(std::move(s));
  return script;
}

Result<std::unique_ptr<Database>> RecoveryPlanner::MaterializeCarvedState(
    const CarveResult& disk) const {
  DatabaseOptions options = reenactor_->base_options();
  options.enforce_constraints = false;
  DBFA_ASSIGN_OR_RETURN(auto db, Database::Open(options));
  db->audit_log().SetEnabled(false);
  for (const auto& [object_id, schema] : disk.schemas) {
    if (disk.dropped_objects.count(object_id) != 0) continue;
    DBFA_RETURN_IF_ERROR(db->CreateTable(schema));
  }
  for (const CarvedRecord& r : disk.records) {
    if (!r.typed || r.status != RowStatus::kActive) continue;
    if (r.slot == CarvedRecord::kOrphanSlot) continue;
    auto schema_it = disk.schemas.find(r.object_id);
    if (schema_it == disk.schemas.end()) continue;
    if (disk.dropped_objects.count(r.object_id) != 0) continue;
    DBFA_RETURN_IF_ERROR(
        db->Insert(schema_it->second.name, r.values).status());
  }
  return db;
}

Result<RecoveryVerification> RecoveryPlanner::Verify(
    const RecoveryScript& script, const AuditLog& log,
    const CarveResult& disk) const {
  RecoveryVerification verification;
  DBFA_ASSIGN_OR_RETURN(ReenactedState claimed, reenactor_->Replay(log));
  DBFA_ASSIGN_OR_RETURN(verification.claimed_fingerprint,
                        claimed.Fingerprint());
  DBFA_ASSIGN_OR_RETURN(auto recovered, MaterializeCarvedState(disk));
  for (const std::string& statement : script.statements) {
    DBFA_RETURN_IF_ERROR(recovered->ExecuteSql(statement).status());
  }
  DBFA_ASSIGN_OR_RETURN(verification.recovered_fingerprint,
                        CanonicalFingerprint(recovered.get()));
  verification.byte_identical =
      verification.claimed_fingerprint == verification.recovered_fingerprint;
  return verification;
}

}  // namespace dbfa
