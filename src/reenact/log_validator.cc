#include "reenact/log_validator.h"

#include <algorithm>
#include <set>

#include "common/strings.h"
#include "reenact/recovery.h"
#include "sql/statement.h"

namespace dbfa {

std::string LogValidationReport::ToString() const {
  std::string out = StrFormat(
      "LogValidation: %s (%zu timeline findings, %zu replay findings, "
      "%zu inserts matched); state %s replay (%zu corrupted rows)\n",
      Consistent() ? "consistent" : "BACKDATING SUSPECTED",
      timeline.findings.size(), replay_findings.size(), inserts_matched,
      state_matches_replay ? "matches" : "DIVERGES FROM", corrupted_rows);
  for (const BackdateFinding& f : timeline.findings) {
    out += "  " + f.ToString() + "\n";
  }
  for (const BackdateFinding& f : replay_findings) {
    out += "  " + f.ToString() + "\n";
  }
  return out;
}

Result<LogValidationReport> LogValidator::Validate(
    const AuditLog& log, const CarveResult& disk) const {
  LogValidationReport report;

  // Detectors 1+2: log-internal and storage-order analysis.
  LogEventAnalyzer analyzer(&disk, &log);
  DBFA_ASSIGN_OR_RETURN(report.timeline, analyzer.Analyze());
  std::set<uint64_t> flagged;
  for (const BackdateFinding& f : report.timeline.findings) {
    flagged.insert(f.seq);
  }

  // Detector 3: replay the claimed history; the outcome trail records the
  // row id the counter held before each statement — the id an honest
  // history would have stamped on that INSERT's record.
  DBFA_ASSIGN_OR_RETURN(ReenactedState state, reenactor_->Replay(log));
  struct MatchedInsert {
    const StatementOutcome* outcome;
    uint64_t carved_row_id;
  };
  std::vector<MatchedInsert> matched;
  // A replay without skips has one outcome per entry, in log order, so
  // outcome i reads entry i's shared parse.
  const std::vector<AuditEntry>& entries = log.entries();
  for (size_t i = 0; i < state.outcomes.size() && i < entries.size(); ++i) {
    const StatementOutcome& outcome = state.outcomes[i];
    if (!outcome.applied) continue;
    const sql::Statement* stmt = entries[i].statement();
    if (stmt == nullptr) continue;
    const auto* ins = std::get_if<sql::InsertStmt>(stmt);
    if (ins == nullptr || ins->rows.size() != 1) continue;
    uint32_t object_id = disk.ObjectIdByName(ins->table);
    if (object_id == 0) continue;
    for (const CarvedRecord& r : disk.records) {
      if (r.object_id != object_id || r.row_id == 0 || !r.typed) continue;
      if (CompareRecords(r.values, ins->rows[0]) == 0) {
        matched.push_back({&outcome, r.row_id});
        break;
      }
    }
  }
  report.inserts_matched = matched.size();
  std::stable_sort(matched.begin(), matched.end(),
                   [](const MatchedInsert& a, const MatchedInsert& b) {
                     if (a.outcome->timestamp != b.outcome->timestamp) {
                       return a.outcome->timestamp < b.outcome->timestamp;
                     }
                     return a.outcome->seq < b.outcome->seq;
                   });
  std::vector<uint64_t> carved_ids;
  carved_ids.reserve(matched.size());
  for (const MatchedInsert& m : matched) carved_ids.push_back(m.carved_row_id);
  std::vector<size_t> consistent = LongestNonDecreasingIndexes(carved_ids);
  std::vector<bool> keep(matched.size(), false);
  for (size_t i : consistent) keep[i] = true;
  for (size_t i = 0; i < matched.size(); ++i) {
    if (keep[i]) continue;
    if (flagged.count(matched[i].outcome->seq) != 0) continue;
    report.replay_findings.push_back(
        {matched[i].outcome->seq, matched[i].outcome->timestamp,
         matched[i].outcome->sql,
         StrFormat("storage stamped row id %llu, out of order for the "
                   "claimed time; replaying the claimed history predicts "
                   "id %llu at this position",
                   static_cast<unsigned long long>(matched[i].carved_row_id),
                   static_cast<unsigned long long>(
                       matched[i].outcome->row_id_before))});
  }

  // State-level cross-check: does the claimed history even lead to the
  // carved reality? (Divergence is tampering — recovery's department.)
  RecoveryPlanner planner(*reenactor_);
  DBFA_ASSIGN_OR_RETURN(RecoveryScript diff, planner.Plan(log, disk));
  report.state_matches_replay = diff.Clean();
  report.corrupted_rows = diff.corruptions.size();
  return report;
}

}  // namespace dbfa
