// Relations for the meta-query engine (Section II-C): uniform tabular views
// over carved artifacts and live tables, so investigators can run SQL that
// "no DBMS supports" — e.g. selecting delete-marked rows, or joining a
// disk carve against a RAM carve.
#ifndef DBFA_METAQUERY_RELATION_H_
#define DBFA_METAQUERY_RELATION_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/artifacts.h"
#include "engine/database.h"

namespace dbfa {

/// A named, scannable set of rows.
class Relation {
 public:
  virtual ~Relation() = default;
  virtual const std::vector<std::string>& columns() const = 0;
  virtual Status Scan(
      const std::function<Status(const Record&)>& fn) const = 0;
  /// The rows, when the relation holds them in memory: random access lets
  /// the meta-query engine split the scan into morsels and index the rows
  /// in place. Null for relations read at scan time, such as live tables.
  virtual const std::vector<Record>* materialized_rows() const {
    return nullptr;
  }
  /// The pool this relation's interned cells point into; a query that
  /// reads the relation holds it in its QueryTable. Null for relations of
  /// owned values.
  virtual std::shared_ptr<const StringPool> string_pool() const {
    return nullptr;
  }
};

/// Materialized relation.
class VectorRelation : public Relation {
 public:
  VectorRelation(std::vector<std::string> columns, std::vector<Record> rows)
      : columns_(std::move(columns)), rows_(std::move(rows)) {}

  const std::vector<std::string>& columns() const override {
    return columns_;
  }
  Status Scan(const std::function<Status(const Record&)>& fn) const override {
    for (const Record& r : rows_) {
      DBFA_RETURN_IF_ERROR(fn(r));
    }
    return Status::Ok();
  }
  const std::vector<Record>* materialized_rows() const override {
    return &rows_;
  }

 private:
  std::vector<std::string> columns_;
  std::vector<Record> rows_;
};

/// Materialized view over one carved table. Keeps the carve's string pool
/// alive — carved rows borrow interned string cells from it (StringRef
/// lifetime rule, docs/columnar_memory.md).
class ArtifactRelation : public VectorRelation {
 public:
  ArtifactRelation(std::vector<std::string> columns, std::vector<Record> rows,
                   std::shared_ptr<const StringPool> pool)
      : VectorRelation(std::move(columns), std::move(rows)),
        pool_(std::move(pool)) {}

  /// The carve's pool, which backs this relation's string cells.
  std::shared_ptr<const StringPool> string_pool() const override {
    return pool_;
  }

 private:
  std::shared_ptr<const StringPool> pool_;
};

/// Pseudo-columns appended to every carved relation, after the table's own
/// columns: RowStatus ('ACTIVE'/'DELETED'), PageId, Slot, RowId, PageLsn.
inline constexpr const char* kRowStatusColumn = "RowStatus";

/// Builds a relation over one carved table (schema columns + pseudo
/// columns). Fails when the table's schema was not reconstructed.
Result<std::shared_ptr<Relation>> MakeCarvedRelation(
    const CarveResult& carve, const std::string& table);

/// Builds a relation over a live MiniDB table (active rows only — what the
/// DBMS itself would show). `db` must outlive the relation.
Result<std::shared_ptr<Relation>> MakeLiveRelation(Database* db,
                                                   const std::string& table);

}  // namespace dbfa

#endif  // DBFA_METAQUERY_RELATION_H_
