#include "engine/audit_log.h"

#include <cstdlib>

#include "common/file_io.h"
#include "common/strings.h"

namespace dbfa {

bool AuditLog::Append(int64_t timestamp, std::string sql) {
  if (!enabled_) return false;
  AuditEntry entry;
  entry.seq = next_seq_++;
  entry.timestamp = timestamp;
  entry.sql = std::move(sql);
  entries_.push_back(std::move(entry));
  return true;
}

AuditLog AuditLog::TailAfter(uint64_t seq) const {
  AuditLog tail;
  for (const AuditEntry& e : entries_) {
    if (e.seq > seq) tail.entries_.push_back(e);
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
  for (const std::string& line : Split(text, '\n')) {
    if (Trim(line).empty()) continue;
    size_t p1 = line.find('|');
    size_t p2 = p1 == std::string::npos ? std::string::npos
                                        : line.find('|', p1 + 1);
    if (p2 == std::string::npos) {
      return Status::Corruption("bad audit log line: " + line);
    }
    AuditEntry e;
    e.seq = std::strtoull(line.substr(0, p1).c_str(), nullptr, 10);
    e.timestamp = std::strtoll(line.substr(p1 + 1, p2 - p1 - 1).c_str(),
                               nullptr, 10);
    e.sql = line.substr(p2 + 1);
    log.next_seq_ = e.seq + 1;
    log.entries_.push_back(std::move(e));
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
