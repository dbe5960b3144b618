#include "detective/confidence.h"

#include <algorithm>

#include "common/strings.h"

namespace dbfa {

std::string ConfidenceReport::ToString() const {
  std::string out = StrFormat("detection confidence %.2f\n", score);
  for (const std::string& f : factors) {
    out += "  - " + f + "\n";
  }
  return out;
}

ConfidenceReport EstimateDetectionConfidence(const CarveResult& disk,
                                             const AuditLog& log) {
  ConfidenceReport report;

  size_t logged_mutations = 0;
  size_t vacuums = 0;
  for (const AuditEntry& e : log.entries()) {
    const sql::Statement* stmt = e.statement();
    if (stmt == nullptr) continue;
    if (std::holds_alternative<sql::DeleteStmt>(*stmt) ||
        std::holds_alternative<sql::UpdateStmt>(*stmt)) {
      ++logged_mutations;
    }
    if (std::holds_alternative<sql::VacuumStmt>(*stmt)) ++vacuums;
  }
  size_t deleted_found = disk.CountRecords(RowStatus::kDeleted);
  size_t data_pages = 0;
  size_t bad_checksums = 0;
  for (const CarvedPage& p : disk.pages) {
    if (p.type == PageType::kData) ++data_pages;
    if (!p.checksum_ok) ++bad_checksums;
  }

  // Factor 1: residue ratio. Every logged DELETE/UPDATE should have left
  // at least one delete-marked record; a large shortfall means residue was
  // reclaimed and unlogged deletions may be invisible too.
  if (logged_mutations > 0) {
    double ratio =
        std::min(1.0, static_cast<double>(deleted_found) /
                          static_cast<double>(logged_mutations));
    // Soften: predicates matching zero rows legitimately leave nothing.
    double factor = 0.4 + 0.6 * ratio;
    report.score *= factor;
    report.factors.push_back(StrFormat(
        "residue ratio: %zu delete-marked records vs %zu logged mutation "
        "statements (x%.2f)",
        deleted_found, logged_mutations, factor));
  }

  // Factor 2: defragmentation destroys residue wholesale.
  if (vacuums > 0) {
    double factor = vacuums == 1 ? 0.3 : 0.15;
    report.score *= factor;
    report.factors.push_back(StrFormat(
        "%zu VACUUM statement(s) in the log: pre-vacuum deletions are "
        "unrecoverable (x%.2f)",
        vacuums, factor));
  }

  // Factor 3: corrupt pages may hide artifacts.
  if (bad_checksums > 0 && !disk.pages.empty()) {
    double damaged = static_cast<double>(bad_checksums) /
                     static_cast<double>(disk.pages.size());
    double factor = std::max(0.3, 1.0 - damaged);
    report.score *= factor;
    report.factors.push_back(StrFormat(
        "%zu of %zu pages fail their checksum (x%.2f)", bad_checksums,
        disk.pages.size(), factor));
  }

  // Factor 4: churn pressure — many mutations per data page shorten the
  // expected evidence lifetime (Section III-D's "volume of operations").
  if (data_pages > 0 && logged_mutations > 0) {
    double churn = static_cast<double>(logged_mutations) /
                   static_cast<double>(data_pages);
    if (churn > 20.0) {
      double factor = std::max(0.5, 20.0 / churn);
      report.score *= factor;
      report.factors.push_back(StrFormat(
          "high churn: %.1f mutation statements per data page (x%.2f)",
          churn, factor));
    }
  }

  if (report.factors.empty()) {
    report.factors.push_back("no degrading signals observed (x1.00)");
  }
  return report;
}

}  // namespace dbfa
