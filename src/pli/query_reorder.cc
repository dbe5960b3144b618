#include "pli/query_reorder.h"

#include <algorithm>
#include <list>
#include <set>
#include <vector>

#include "common/strings.h"
#include "sql/parser.h"

namespace dbfa {
namespace {

struct SimKey {
  uint32_t object_id;
  uint32_t page_id;
  bool operator<(const SimKey& o) const {
    return object_id != o.object_id ? object_id < o.object_id
                                    : page_id < o.page_id;
  }
};

/// Simulated LRU cache of page identities.
class SimCache {
 public:
  explicit SimCache(size_t capacity) : capacity_(capacity) {}

  size_t MissCount(const std::vector<SimKey>& pages) const {
    size_t misses = 0;
    for (const SimKey& k : pages) {
      if (resident_.count(k) == 0) ++misses;
    }
    return misses;
  }

  void Touch(const std::vector<SimKey>& pages) {
    for (const SimKey& k : pages) {
      auto it = resident_.find(k);
      if (it != resident_.end()) {
        lru_.erase(it->second);
      }
      lru_.push_back(k);
      resident_[k] = std::prev(lru_.end());
      while (resident_.size() > capacity_) {
        resident_.erase(lru_.front());
        lru_.pop_front();
      }
    }
  }

 private:
  size_t capacity_;
  std::list<SimKey> lru_;
  std::map<SimKey, std::list<SimKey>::iterator> resident_;
};

}  // namespace

std::string ReorderPlan::ToString() const {
  std::string out = "order:";
  for (size_t i : order) out += StrFormat(" %zu", i);
  out += StrFormat("\nestimated misses: original=%zu reordered=%zu",
                   estimated_misses_original, estimated_misses_reordered);
  return out;
}

Result<ReorderPlan> QueryReorderer::Plan(
    Database* db, const std::vector<std::string>& queries) {
  // Estimate the page set of each query.
  std::vector<std::vector<SimKey>> page_sets;
  for (const std::string& text : queries) {
    DBFA_ASSIGN_OR_RETURN(sql::Statement stmt, sql::ParseStatement(text));
    const auto* select = std::get_if<sql::SelectStmt>(&stmt);
    if (select == nullptr) {
      return Status::InvalidArgument("only SELECTs can be reordered: " +
                                     text);
    }
    const TableInfo* info = db->catalog().Find(select->from.table);
    if (info == nullptr) {
      return Status::NotFound("no such table: " + select->from.table);
    }
    const StorageFile* heap_file = db->pager().file(info->object_id);
    uint32_t heap_pages = heap_file == nullptr ? 0 : heap_file->page_count();

    std::vector<SimKey> pages;
    auto bounds = Database::ChooseIndex(*info, select->where.get());
    if (bounds.has_value()) {
      const IndexInfo* index = bounds->index;
      bool is_equality = bounds->lo.has_value() && bounds->hi.has_value() &&
                         Value::Compare(*bounds->lo, *bounds->hi) == 0;
      BTree* tree = db->index(info->schema.name, index->name);
      if (tree != nullptr) {
        DBFA_ASSIGN_OR_RETURN(auto index_pages, tree->ReachablePages());
        for (uint32_t p : index_pages) {
          pages.push_back({index->object_id, p});
        }
      }
      // Heap pages actually fetched: one for a point lookup, a quarter of
      // the table for a range (coarse but monotone estimate).
      uint32_t touched = is_equality
                             ? 1
                             : std::max<uint32_t>(1, heap_pages / 4);
      for (uint32_t p = 1; p <= touched && p <= heap_pages; ++p) {
        pages.push_back({info->object_id, p});
      }
    } else {
      for (uint32_t p = 1; p <= heap_pages; ++p) {
        pages.push_back({info->object_id, p});
      }
    }
    page_sets.push_back(std::move(pages));
  }

  // Seed both simulations with the real pool contents.
  std::vector<SimKey> resident;
  for (PageKey k : db->pager().pool().CachedKeys()) {
    resident.push_back({k.object_id, k.page_id});
  }
  size_t capacity = db->pager().pool().capacity();

  ReorderPlan plan;
  {
    SimCache cache(capacity);
    cache.Touch(resident);
    for (const auto& pages : page_sets) {
      plan.estimated_misses_original += cache.MissCount(pages);
      cache.Touch(pages);
    }
  }
  {
    SimCache cache(capacity);
    cache.Touch(resident);
    std::vector<bool> done(page_sets.size(), false);
    for (size_t step = 0; step < page_sets.size(); ++step) {
      size_t best = SIZE_MAX;
      size_t best_misses = SIZE_MAX;
      for (size_t i = 0; i < page_sets.size(); ++i) {
        if (done[i]) continue;
        size_t misses = cache.MissCount(page_sets[i]);
        if (misses < best_misses) {
          best = i;
          best_misses = misses;
        }
      }
      done[best] = true;
      plan.order.push_back(best);
      plan.estimated_misses_reordered += best_misses;
      cache.Touch(page_sets[best]);
    }
  }
  return plan;
}

}  // namespace dbfa
