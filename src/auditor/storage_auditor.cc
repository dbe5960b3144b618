#include "auditor/storage_auditor.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/strings.h"

namespace dbfa {
namespace {

const char* FindingKindName(TamperFinding::Kind kind) {
  switch (kind) {
    case TamperFinding::Kind::kExtraneousRecord:
      return "extraneous record (no index entry)";
    case TamperFinding::Kind::kDanglingPointer:
      return "dangling pointer (record erased)";
    case TamperFinding::Kind::kValueMismatch:
      return "value mismatch (record overwritten)";
  }
  return "?";
}

struct LocatedRecord {
  RowPointer loc;
  const CarvedRecord* record;
  std::vector<Value> keys;
  bool keys_indexed = false;  // at least one non-NULL key component
};

struct LocatedEntry {
  RowPointer loc;
  const CarvedIndexEntry* entry;
};

}  // namespace

std::string TamperFinding::ToString() const {
  std::string out = StrFormat("[%s] table %s page %u slot %u",
                              FindingKindName(kind), table.c_str(), page_id,
                              slot);
  if (!record_values.empty()) {
    out += " record " + RecordToString(record_values);
  }
  if (!index_keys.empty()) {
    out += " index " + index_name + " keys " + RecordToString(index_keys);
  }
  return out;
}

std::string AuditReport::ToString() const {
  std::string out = StrFormat(
      "DBStorageAuditor report: %zu index issues, %zu tamper findings "
      "(checked %zu records, %zu pointers)\n",
      index_issues.size(), findings.size(), records_checked,
      pointers_checked);
  for (const BTreeIssue& issue : index_issues) {
    out += StrFormat("  [index %u page %u] %s\n", issue.index_object,
                     issue.page_id, issue.what.c_str());
  }
  for (const TamperFinding& f : findings) {
    out += "  " + f.ToString() + "\n";
  }
  return out;
}

StorageAuditor::StorageAuditor(CarverConfig config)
    : StorageAuditor(std::move(config), Options()) {}

StorageAuditor::StorageAuditor(CarverConfig config, Options options)
    : config_(std::move(config)), options_(options) {}

Result<AuditReport> StorageAuditor::Audit(ByteView image) const {
  Carver carver(config_);
  DBFA_ASSIGN_OR_RETURN(CarveResult carve, carver.Carve(image));
  return AuditCarve(carve);
}

std::vector<uint32_t> StorageAuditor::ReachableLeaves(
    const CarveResult& carve, uint32_t index_object, uint32_t root) const {
  // Children per internal page of this object.
  std::map<uint32_t, std::vector<uint32_t>> children;
  std::set<uint32_t> leaves;
  std::set<uint32_t> internals;
  for (const CarvedPage& p : carve.pages) {
    if (p.object_id != index_object) continue;
    if (p.type == PageType::kIndexLeaf) leaves.insert(p.page_id);
    if (p.type == PageType::kIndexInternal) internals.insert(p.page_id);
  }
  for (const CarvedIndexEntry& e : carve.index_entries) {
    if (e.object_id == index_object && !e.leaf) {
      children[e.page_id].push_back(e.pointer.page_id);
    }
  }
  std::vector<uint32_t> out;
  std::set<uint32_t> visited;
  std::vector<uint32_t> stack = {root};
  while (!stack.empty()) {
    uint32_t page = stack.back();
    stack.pop_back();
    if (!visited.insert(page).second) continue;
    if (leaves.count(page) != 0) {
      out.push_back(page);
    } else if (internals.count(page) != 0) {
      for (uint32_t child : children[page]) stack.push_back(child);
    }
  }
  return out;
}

void StorageAuditor::VerifyBTree(const CarveResult& carve,
                                 const CarvedIndexMeta& meta,
                                 AuditReport* report) const {
  // Per-page entry lists in slot (i.e. key) order.
  std::map<uint32_t, std::vector<const CarvedIndexEntry*>> by_page;
  for (const CarvedIndexEntry& e : carve.index_entries) {
    if (e.object_id == meta.object_id) by_page[e.page_id].push_back(&e);
  }
  std::set<uint32_t> object_pages;
  std::map<uint32_t, const CarvedPage*> page_meta;
  for (const CarvedPage& p : carve.pages) {
    if (p.object_id != meta.object_id) continue;
    object_pages.insert(p.page_id);
    page_meta[p.page_id] = &p;
    if (!p.checksum_ok) {
      report->index_issues.push_back(
          {meta.object_id, p.page_id, "page checksum failure"});
    }
  }
  // Within-node ordering.
  for (const auto& [page_id, entries] : by_page) {
    for (size_t i = 1; i < entries.size(); ++i) {
      // Internal sentinels (empty keys) sort first by construction.
      if (entries[i - 1]->keys.empty()) continue;
      if (CompareRecords(entries[i - 1]->keys, entries[i]->keys) > 0) {
        report->index_issues.push_back(
            {meta.object_id, page_id,
             StrFormat("keys out of order at positions %zu/%zu", i - 1, i)});
        break;
      }
    }
  }
  // Child references must exist.
  for (const CarvedIndexEntry& e : carve.index_entries) {
    if (e.object_id != meta.object_id || e.leaf) continue;
    if (object_pages.count(e.pointer.page_id) == 0) {
      report->index_issues.push_back(
          {meta.object_id, e.page_id,
           StrFormat("internal entry references missing page %u",
                     e.pointer.page_id)});
    }
  }
  // Leaf-chain ordering among reachable leaves.
  std::vector<uint32_t> reachable =
      ReachableLeaves(carve, meta.object_id, meta.root_page);
  for (uint32_t leaf : reachable) {
    auto pm = page_meta.find(leaf);
    if (pm == page_meta.end()) continue;
    uint32_t next = pm->second->next_page;
    if (next == 0) continue;
    auto cur_it = by_page.find(leaf);
    auto next_it = by_page.find(next);
    if (cur_it == by_page.end() || next_it == by_page.end()) continue;
    if (cur_it->second.empty() || next_it->second.empty()) continue;
    if (CompareRecords(cur_it->second.back()->keys,
                       next_it->second.front()->keys) > 0) {
      report->index_issues.push_back(
          {meta.object_id, leaf,
           StrFormat("leaf chain order violated toward page %u", next)});
    }
  }
}

Result<AuditReport> StorageAuditor::AuditCarve(const CarveResult& carve) const {
  AuditReport report(carve);
  for (const auto& [index_object, meta] : carve.indexes) {
    if (meta.dropped) continue;
    auto schema_it = carve.schemas.find(meta.table_object_id);
    if (schema_it == carve.schemas.end()) continue;
    const TableSchema& schema = schema_it->second;
    std::vector<int> key_columns;
    bool columns_ok = true;
    for (const std::string& col : meta.columns) {
      int ci = schema.ColumnIndex(col);
      if (ci < 0) columns_ok = false;
      key_columns.push_back(ci);
    }
    if (!columns_ok) continue;

    VerifyBTree(carve, meta, &report);

    // Gather located records of the table (physical order).
    std::vector<LocatedRecord> records;
    for (const CarvedRecord& r : carve.records) {
      if (r.object_id != meta.table_object_id ||
          r.slot == CarvedRecord::kOrphanSlot || !r.typed) {
        continue;
      }
      LocatedRecord lr;
      lr.loc = {r.page_id, r.slot};
      lr.record = &r;
      for (int ci : key_columns) {
        lr.keys.push_back(static_cast<size_t>(ci) < r.values.size()
                              ? r.values[ci]
                              : Value::Null());
      }
      for (const Value& k : lr.keys) {
        if (!k.is_null()) lr.keys_indexed = true;
      }
      records.push_back(std::move(lr));
    }
    // Gather entries on reachable leaves only (orphaned pre-rebuild pages
    // are residue, not evidence of tampering).
    std::set<uint32_t> reachable_set;
    for (uint32_t leaf :
         ReachableLeaves(carve, meta.object_id, meta.root_page)) {
      reachable_set.insert(leaf);
    }
    std::vector<LocatedEntry> entries;
    for (const CarvedIndexEntry& e : carve.index_entries) {
      if (e.object_id != index_object || !e.leaf) continue;
      if (reachable_set.count(e.page_id) == 0) continue;
      entries.push_back({e.pointer, &e});
    }
    report.records_checked += records.size();
    report.pointers_checked += entries.size();

    auto report_record = [&](const LocatedRecord& lr, bool covered) {
      if (covered || lr.record->status == RowStatus::kDeleted ||
          !lr.keys_indexed) {
        return;
      }
      TamperFinding f;
      f.kind = TamperFinding::Kind::kExtraneousRecord;
      f.table = schema.name;
      f.page_id = lr.loc.page_id;
      f.slot = lr.loc.slot;
      f.record_values = lr.record->values;
      report.findings.push_back(std::move(f));
    };
    auto report_entry = [&](const LocatedEntry& le,
                            const LocatedRecord* target) {
      if (target == nullptr) {
        TamperFinding f;
        f.kind = TamperFinding::Kind::kDanglingPointer;
        f.table = schema.name;
        f.index_name = meta.name;
        f.page_id = le.loc.page_id;
        f.slot = le.loc.slot;
        f.index_keys = le.entry->keys;
        report.findings.push_back(std::move(f));
        return;
      }
      if (target->record->status == RowStatus::kDeleted) return;  // residue
      if (CompareRecords(le.entry->keys, target->keys) != 0) {
        TamperFinding f;
        f.kind = TamperFinding::Kind::kValueMismatch;
        f.table = schema.name;
        f.index_name = meta.name;
        f.page_id = le.loc.page_id;
        f.slot = le.loc.slot;
        f.record_values = target->record->values;
        f.index_keys = le.entry->keys;
        report.findings.push_back(std::move(f));
      }
    };

    if (options_.sorted_matching) {
      // Sort both sides by physical location and merge — the paper's
      // scalable organization of deconstructed pointers.
      std::sort(records.begin(), records.end(),
                [](const LocatedRecord& a, const LocatedRecord& b) {
                  return a.loc < b.loc;
                });
      std::sort(entries.begin(), entries.end(),
                [](const LocatedEntry& a, const LocatedEntry& b) {
                  return a.loc < b.loc;
                });
      size_t j = 0;
      for (const LocatedRecord& lr : records) {
        while (j < entries.size() && entries[j].loc < lr.loc) {
          report_entry(entries[j], nullptr);  // no record at this location
          ++j;
        }
        bool covered = false;
        while (j < entries.size() && entries[j].loc == lr.loc) {
          report_entry(entries[j], &lr);
          covered = true;
          ++j;
        }
        report_record(lr, covered);
      }
      for (; j < entries.size(); ++j) {
        report_entry(entries[j], nullptr);
      }
    } else {
      // Naive quadratic baseline (ablation).
      for (const LocatedRecord& lr : records) {
        bool covered = false;
        for (const LocatedEntry& le : entries) {
          if (le.loc == lr.loc) covered = true;
        }
        report_record(lr, covered);
      }
      for (const LocatedEntry& le : entries) {
        const LocatedRecord* target = nullptr;
        for (const LocatedRecord& lr : records) {
          if (lr.loc == le.loc) target = &lr;
        }
        report_entry(le, target);
      }
    }
  }
  return report;
}

}  // namespace dbfa
