#include "engine/audit_log.h"

#include <limits>

#include "common/file_io.h"
#include "common/strings.h"
#include "sql/parser.h"

namespace dbfa {

const sql::Statement* ParsedStatement::Get(const std::string& sql) const {
  std::call_once(once_, [&] {
    auto stmt = sql::ParseStatement(sql);
    if (stmt.ok()) {
      statement_ = std::make_unique<const sql::Statement>(
          std::move(stmt).value());
    }
  });
  return statement_.get();
}

void AuditLog::Push(AuditEntry entry) {
  entry.parsed_ = std::make_shared<const ParsedStatement>();
  entries_.push_back(std::move(entry));
}

bool AuditLog::Append(int64_t timestamp, std::string sql) {
  if (!enabled_) return false;
  AuditEntry entry;
  entry.seq = next_seq_++;
  entry.timestamp = timestamp;
  entry.sql = std::move(sql);
  Push(std::move(entry));
  return true;
}

AuditLog AuditLog::TailAfter(uint64_t seq) const {
  AuditLog tail;
  for (const AuditEntry& e : entries_) {
    if (e.seq > seq) tail.entries_.push_back(e);  // shares e's handle
  }
  tail.next_seq_ = next_seq_;
  return tail;
}

std::string AuditLog::ToText() const {
  std::string out;
  for (const AuditEntry& e : entries_) {
    out += StrFormat("%llu|%lld|", static_cast<unsigned long long>(e.seq),
                     static_cast<long long>(e.timestamp));
    out += e.sql;
    out += "\n";
  }
  return out;
}

Result<AuditLog> AuditLog::FromText(const std::string& text) {
  AuditLog log;
  size_t line_no = 0;
  for (const std::string& line : Split(text, '\n')) {
    ++line_no;
    if (Trim(line).empty()) continue;
    size_t p1 = line.find('|');
    size_t p2 = p1 == std::string::npos ? std::string::npos
                                        : line.find('|', p1 + 1);
    AuditEntry e;
    std::string_view view(line);
    if (p2 == std::string::npos || !ParseU64(view.substr(0, p1), &e.seq) ||
        e.seq == std::numeric_limits<uint64_t>::max() ||
        !ParseI64(view.substr(p1 + 1, p2 - p1 - 1), &e.timestamp)) {
      return Status::Corruption(
          StrFormat("bad audit log line %zu: ", line_no) + line);
    }
    e.sql = line.substr(p2 + 1);
    log.next_seq_ = e.seq + 1;
    log.Push(std::move(e));
  }
  return log;
}

Status AuditLog::SaveTo(const std::string& path) const {
  return WriteFile(path, ToText());
}

Result<AuditLog> AuditLog::LoadFrom(const std::string& path) {
  DBFA_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  return FromText(text);
}

}  // namespace dbfa
