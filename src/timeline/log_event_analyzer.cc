#include "timeline/log_event_analyzer.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/strings.h"
#include "sql/statement.h"

namespace dbfa {

std::vector<size_t> LongestNonDecreasingIndexes(
    const std::vector<uint64_t>& values) {
  std::vector<size_t> tails;        // indexes of subsequence tails
  std::vector<int64_t> parent(values.size(), -1);
  for (size_t i = 0; i < values.size(); ++i) {
    // Find first tail strictly greater than values[i].
    size_t lo = 0;
    size_t hi = tails.size();
    while (lo < hi) {
      size_t mid = (lo + hi) / 2;
      if (values[tails[mid]] <= values[i]) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo > 0) parent[i] = static_cast<int64_t>(tails[lo - 1]);
    if (lo == tails.size()) {
      tails.push_back(i);
    } else {
      tails[lo] = i;
    }
  }
  std::vector<size_t> out;
  if (tails.empty()) return out;
  int64_t at = static_cast<int64_t>(tails.back());
  while (at >= 0) {
    out.push_back(static_cast<size_t>(at));
    at = parent[at];
  }
  std::reverse(out.begin(), out.end());
  return out;
}

std::string BackdateFinding::ToString() const {
  return StrFormat("seq %llu ts %lld: %s — %s",
                   static_cast<unsigned long long>(seq),
                   static_cast<long long>(timestamp), sql.c_str(),
                   reason.c_str());
}

std::string TimelineReport::ToString() const {
  std::string out =
      StrFormat("LogEventAnalysis: %zu backdated entries suspected "
                "(%zu inserts matched to storage)\n",
                findings.size(), inserts_matched);
  for (const BackdateFinding& f : findings) {
    out += "  " + f.ToString() + "\n";
  }
  return out;
}

Result<TimelineReport> LogEventAnalyzer::Analyze() const {
  TimelineReport report;

  // Detector 1: timestamp inversions against append order.
  std::set<uint64_t> flagged_seqs;
  int64_t running_max = INT64_MIN;
  for (const AuditEntry& e : log_->entries()) {
    if (e.timestamp < running_max) {
      report.findings.push_back(
          {e.seq, e.timestamp, e.sql,
           "timestamp is earlier than a previously appended entry "
           "(server clock was set backwards)"});
      flagged_seqs.insert(e.seq);
    }
    running_max = std::max(running_max, e.timestamp);
  }

  // Detector 2: storage row-id order versus claimed timestamp order.
  // Match logged single-row INSERTs to carved records by table + values.
  struct MatchedInsert {
    const AuditEntry* entry;
    uint64_t row_id;
  };
  std::vector<MatchedInsert> matched;
  for (const AuditEntry& e : log_->entries()) {
    const sql::Statement* stmt = e.statement();
    if (stmt == nullptr) continue;
    const auto* ins = std::get_if<sql::InsertStmt>(stmt);
    if (ins == nullptr || ins->rows.size() != 1) continue;
    uint32_t object_id = disk_->ObjectIdByName(ins->table);
    if (object_id == 0) continue;
    for (const CarvedRecord& r : disk_->records) {
      if (r.object_id != object_id || r.row_id == 0 || !r.typed) continue;
      if (CompareRecords(r.values, ins->rows[0]) == 0) {
        matched.push_back({&e, r.row_id});
        break;
      }
    }
  }
  report.inserts_matched = matched.size();
  // Order by claimed time (timestamp, then seq); row ids must not decrease.
  std::stable_sort(matched.begin(), matched.end(),
                   [](const MatchedInsert& a, const MatchedInsert& b) {
                     if (a.entry->timestamp != b.entry->timestamp) {
                       return a.entry->timestamp < b.entry->timestamp;
                     }
                     return a.entry->seq < b.entry->seq;
                   });
  std::vector<uint64_t> row_ids;
  row_ids.reserve(matched.size());
  for (const MatchedInsert& m : matched) row_ids.push_back(m.row_id);
  std::vector<size_t> consistent = LongestNonDecreasingIndexes(row_ids);
  std::vector<bool> keep(matched.size(), false);
  for (size_t i : consistent) keep[i] = true;
  for (size_t i = 0; i < matched.size(); ++i) {
    if (keep[i]) continue;
    if (flagged_seqs.count(matched[i].entry->seq) != 0) continue;
    report.findings.push_back(
        {matched[i].entry->seq, matched[i].entry->timestamp,
         matched[i].entry->sql,
         StrFormat("storage row id %llu contradicts the claimed time order",
                   static_cast<unsigned long long>(matched[i].row_id))});
  }
  return report;
}

}  // namespace dbfa
