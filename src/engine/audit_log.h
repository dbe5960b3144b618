// The DBMS audit log: the evidence source DBDetective cross-checks against
// carved storage. Logging can be disabled and re-enabled — the privileged-
// user attack of Section III-A — and the log's timestamps come from the
// (tamperable) server clock, which is what Section III-C exploits.
//
// Each entry's statement is parsed at most once. Append, FromText and
// TailAfter give every entry a shared handle; copies of a log share those
// handles, so a statement parsed through any copy is parsed for all of
// them. The parse runs on first use, on whichever thread reads the entry
// first — never inside Append, which stays a cheap push on the thread that
// extends the log.
#ifndef DBFA_ENGINE_AUDIT_LOG_H_
#define DBFA_ENGINE_AUDIT_LOG_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "sql/statement.h"

namespace dbfa {

/// The parse-once cell one entry's copies share.
class ParsedStatement {
 public:
  /// The statement `sql` parses to, or null when it does not parse. Parses
  /// on the first call; later calls, from any thread, return the same
  /// pointer.
  const sql::Statement* Get(const std::string& sql) const;

 private:
  mutable std::once_flag once_;
  mutable std::unique_ptr<const sql::Statement> statement_;
};

struct AuditEntry {
  uint64_t seq = 0;       // position in the log file
  int64_t timestamp = 0;  // server-clock seconds
  std::string sql;        // statement text as executed

  /// The parsed statement, shared by every copy of this entry; null when
  /// `sql` does not parse, and for entries built outside an AuditLog
  /// (they carry no handle).
  const sql::Statement* statement() const {
    return parsed_ == nullptr ? nullptr : parsed_->Get(sql);
  }

  /// The shared handle itself: copies of one entry return the same pointer,
  /// so it identifies the entry across copies of the log.
  const std::shared_ptr<const ParsedStatement>& handle() const {
    return parsed_;
  }

 private:
  friend class AuditLog;
  std::shared_ptr<const ParsedStatement> parsed_;
};

class AuditLog {
 public:
  AuditLog() = default;

  bool enabled() const { return enabled_; }
  /// Privileged users can legitimately disable logging (e.g. bulk loads) —
  /// and maliciously hide activity. Nothing is recorded while disabled.
  void SetEnabled(bool enabled) { enabled_ = enabled; }

  /// Appends an entry if logging is enabled. Returns true when recorded.
  bool Append(int64_t timestamp, std::string sql);

  const std::vector<AuditEntry>& entries() const { return entries_; }
  void Clear() { entries_.clear(); }

  /// Entries with seq strictly greater than `seq` — the log window an
  /// investigator compares against a cache snapshot taken after that
  /// point (cached pages predating the window are stale, not evidence).
  /// The window shares its entries' handles with this log.
  AuditLog TailAfter(uint64_t seq) const;

  /// "seq|timestamp|sql" lines.
  std::string ToText() const;
  /// Parses ToText() output. A line whose seq or timestamp is not a strict
  /// decimal number, or whose seq is 2^64-1 (the next Append would wrap to
  /// 0), is Corruption naming the line. Out-of-order and duplicate seqs
  /// load as written: a tampered log is still evidence.
  static Result<AuditLog> FromText(const std::string& text);

  Status SaveTo(const std::string& path) const;
  static Result<AuditLog> LoadFrom(const std::string& path);

 private:
  void Push(AuditEntry entry);

  bool enabled_ = true;
  uint64_t next_seq_ = 1;
  std::vector<AuditEntry> entries_;
};

}  // namespace dbfa

#endif  // DBFA_ENGINE_AUDIT_LOG_H_
