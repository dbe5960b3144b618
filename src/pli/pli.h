// PLI — Physical Location Index (Section IV-a): exploit the carver's view
// of physical data order to answer range queries on an *approximately
// clustered* attribute without maintaining a clustered index.
//
// Build: walk the table in physical order, cut it into fixed-size page
// buckets, and record each bucket's min/max of the attribute. Lookup:
// return the pages of every bucket whose [min, max] envelope intersects
// the queried range. For naturally-ordered ingest (timestamps, serial
// ids) this reads a small superset of the exact pages while costing
// nothing at ingest time — the trade-off the PLI paper quantifies against
// a maintained clustered index and a full scan.
#ifndef DBFA_PLI_PLI_H_
#define DBFA_PLI_PLI_H_

#include <string>
#include <vector>

#include "core/artifacts.h"
#include "engine/database.h"

namespace dbfa {

struct PliBucket {
  Value min_value;
  Value max_value;
  std::vector<uint32_t> pages;
  size_t rows = 0;
};

class PhysicalLocationIndex {
 public:
  /// Builds from carved storage (the forensic route: no DBMS needed).
  static Result<PhysicalLocationIndex> Build(const CarveResult& carve,
                                             const std::string& table,
                                             const std::string& column,
                                             size_t pages_per_bucket = 4);

  /// Builds from a live database scan.
  static Result<PhysicalLocationIndex> BuildFromDatabase(
      Database* db, const std::string& table, const std::string& column,
      size_t pages_per_bucket = 4);

  /// Pages possibly holding values in [lo, hi] (inclusive).
  std::vector<uint32_t> LookupPages(const Value& lo, const Value& hi) const;

  const std::vector<PliBucket>& buckets() const { return buckets_; }
  /// Holds the pool of the carve Build read, so bucket bounds stay
  /// readable after it is gone (docs/columnar_memory.md).
  const StringPoolSet& string_pools() const { return string_pools_; }
  size_t total_pages() const { return total_pages_; }
  size_t total_rows() const { return total_rows_; }

  /// Fraction of bucket transitions with increasing minima — ~1.0 for
  /// (approximately) clustered ingest, ~0.5 for random placement.
  double ClusteringFactor() const;

 private:
  static PhysicalLocationIndex FromOrderedRows(
      const std::vector<std::pair<uint32_t, Value>>& page_values,
      size_t pages_per_bucket);

  std::vector<PliBucket> buckets_;
  StringPoolSet string_pools_;
  size_t total_pages_ = 0;
  size_t total_rows_ = 0;
};

}  // namespace dbfa

#endif  // DBFA_PLI_PLI_H_
