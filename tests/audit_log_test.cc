// AuditLog: strict text loading, and the parse-once statement handles that
// every copy of a log shares (copies, TailAfter windows, concurrent readers
// on other threads).
#include "engine/audit_log.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <variant>
#include <vector>

namespace dbfa {
namespace {

AuditLog SampleLog() {
  AuditLog log;
  log.Append(10, "CREATE TABLE T (Id INT NOT NULL, Name VARCHAR(8))");
  log.Append(11, "INSERT INTO T VALUES (1, 'a')");
  log.Append(12, "this is not sql");
  log.Append(13, "DELETE FROM T WHERE Id = 1");
  return log;
}

TEST(AuditLogTest, FromTextRejectsMalformedNumbers) {
  struct Case {
    const char* text;
    const char* why;
  };
  const Case cases[] = {
      {"abc|5|DELETE FROM T\n", "non-numeric seq"},
      {"-3|5|DELETE FROM T\n", "negative seq"},
      {"7|xyz|DELETE FROM T\n", "non-numeric timestamp"},
      {"18446744073709551615|5|DELETE FROM T\n", "seq 2^64-1 wraps Append"},
      {"18446744073709551616|5|DELETE FROM T\n", "seq overflows"},
      {"7|5x|DELETE FROM T\n", "trailing junk in timestamp"},
      {"|5|DELETE FROM T\n", "empty seq"},
      {"7 DELETE FROM T\n", "no separators"},
  };
  for (const Case& c : cases) {
    auto log = AuditLog::FromText(c.text);
    ASSERT_FALSE(log.ok()) << c.why;
    EXPECT_EQ(log.status().code(), StatusCode::kCorruption) << c.why;
  }
  // The error names the offending line.
  auto bad = AuditLog::FromText("1|5|DELETE FROM T\n\n-3|6|DELETE FROM T\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().ToString().find("line 3"), std::string::npos)
      << bad.status().ToString();
}

TEST(AuditLogTest, FromTextKeepsTamperedButWellFormedLogs) {
  // Out-of-order and duplicate seqs, negative timestamps and '|' inside
  // the SQL are all loadable evidence.
  auto log = AuditLog::FromText(
      "5|100|DELETE FROM T WHERE Name = 'a|b'\n"
      "3|-20|DELETE FROM T\n"
      "3|7|DELETE FROM T\n"
      "18446744073709551614|1|DELETE FROM T\n");
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  ASSERT_EQ(log->entries().size(), 4u);
  EXPECT_EQ(log->entries()[0].sql, "DELETE FROM T WHERE Name = 'a|b'");
  EXPECT_EQ(log->entries()[1].timestamp, -20);
  EXPECT_EQ(log->entries()[2].seq, 3u);
  // The next Append continues after the largest loadable seq.
  AuditLog grown = *log;
  ASSERT_TRUE(grown.Append(2, "DELETE FROM T"));
  EXPECT_EQ(grown.entries().back().seq, 18446744073709551615u);
  EXPECT_EQ(AuditLog::FromText(log->ToText())->ToText(), log->ToText());
}

TEST(AuditLogTest, CopiesAndTailsShareParsedStatements) {
  AuditLog log = SampleLog();
  AuditLog copy = log;
  AuditLog tail = log.TailAfter(1);
  ASSERT_EQ(tail.entries().size(), 3u);
  for (size_t i = 0; i < log.entries().size(); ++i) {
    const AuditEntry& e = log.entries()[i];
    EXPECT_EQ(copy.entries()[i].handle(), e.handle());
    EXPECT_EQ(copy.entries()[i].statement(), e.statement());
    if (i >= 1) {
      EXPECT_EQ(tail.entries()[i - 1].statement(), e.statement());
    }
  }
  // Parsing through the tail first is parsing for the original, too.
  AuditLog fresh = SampleLog();
  AuditLog fresh_tail = fresh.TailAfter(3);
  const sql::Statement* del = fresh_tail.entries()[0].statement();
  ASSERT_NE(del, nullptr);
  EXPECT_TRUE(std::holds_alternative<sql::DeleteStmt>(*del));
  EXPECT_EQ(fresh.entries()[3].statement(), del);

  // A reload of the same text is a different log: fresh handles.
  auto reloaded = AuditLog::FromText(log.ToText());
  ASSERT_TRUE(reloaded.ok());
  for (size_t i = 0; i < log.entries().size(); ++i) {
    EXPECT_NE(reloaded->entries()[i].handle(), log.entries()[i].handle());
  }
}

TEST(AuditLogTest, UnparseableEntryIsNullInEveryCopy) {
  AuditLog log = SampleLog();
  AuditLog copy = log;
  AuditLog tail = log.TailAfter(2);
  EXPECT_EQ(copy.entries()[2].statement(), nullptr);
  EXPECT_EQ(log.entries()[2].statement(), nullptr);
  EXPECT_EQ(tail.entries()[0].statement(), nullptr);
  EXPECT_NE(log.entries()[1].statement(), nullptr);
}

TEST(AuditLogTest, EntryBuiltOutsideALogHasNoStatement) {
  AuditEntry entry;
  entry.sql = "DELETE FROM T";
  EXPECT_EQ(entry.handle(), nullptr);
  EXPECT_EQ(entry.statement(), nullptr);
}

// Runs under TSan (label `sanitize`): four threads race to be the first
// reader of the same entries through their own copies of the log.
TEST(AuditLogTest, ConcurrentFirstReadsParseOnce) {
  AuditLog log;
  for (int i = 0; i < 200; ++i) {
    log.Append(i, "INSERT INTO T VALUES (" + std::to_string(i) + ", 'x')");
  }
  std::vector<AuditLog> copies(4, log);
  std::vector<std::vector<const sql::Statement*>> seen(copies.size());
  std::vector<std::thread> threads;
  for (size_t t = 0; t < copies.size(); ++t) {
    threads.emplace_back([&, t] {
      for (const AuditEntry& e : copies[t].entries()) {
        seen[t].push_back(e.statement());
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (size_t i = 0; i < log.entries().size(); ++i) {
    const sql::Statement* stmt = log.entries()[i].statement();
    ASSERT_NE(stmt, nullptr);
    for (size_t t = 0; t < copies.size(); ++t) EXPECT_EQ(seen[t][i], stmt);
  }
}

}  // namespace
}  // namespace dbfa
