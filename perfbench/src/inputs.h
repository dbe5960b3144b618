// Inputs of the four pipeline workloads. The generator process builds them
// from a seed (engine + workload modules) and writes them to a file; the
// measuring process loads them before any timing starts, so no timed region
// ever runs the DBMS or the workload simulators.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "blob.h"
#include "common/bytes.h"
#include "core/config_io.h"
#include "engine/audit_log.h"
#include "storage/value.h"

namespace perfbench {

/// Every workload audits the same built-in dialect.
dbfa::CarverConfig BenchConfig();

/// Rebuilds the first `n` entries of a recorded log. AuditLog::Append
/// numbers entries 1, 2, ... exactly as the recording log did.
dbfa::AuditLog PrefixLog(const std::vector<dbfa::AuditEntry>& entries,
                         size_t n);
/// Appends entries [log->entries().size(), n) to `log`.
void ExtendLog(const std::vector<dbfa::AuditEntry>& entries, size_t n,
               dbfa::AuditLog* log);

/// Query-result checksum: integer cells add their value, doubles add
/// round(100 * value), strings and NULLs add nothing. Generators derive the
/// expected value of every query from their own construction by the same
/// rule.
int64_t CellChecksum(const dbfa::Value& v);

struct InvestigateInputs {
  dbfa::Bytes disk;  // disk image: database file framed with garbage
  dbfa::Bytes ram;   // buffer-pool snapshot
  std::vector<dbfa::AuditEntry> log;
  /// UnattributedModification::Key() of every injected unlogged operation,
  /// sorted.
  std::vector<std::string> expected;
};

struct SnapshotInputs {
  std::vector<dbfa::Bytes> captures;  // capture 0 is the set-up capture
  std::vector<dbfa::AuditEntry> log;  // the log at the last capture
  std::vector<uint64_t> log_len;      // log entries at each capture
  std::vector<uint64_t> bulk;         // 1 when the capture is a bulk change
  /// Sorted finding keys each capture's incremental detection must report
  /// (the unlogged operations injected since the previous capture).
  std::vector<std::vector<std::string>> expected;
};

/// Successive captures of one instance differ in a few bytes, so the fleet's
/// captures travel as diffs against the instance's previous capture (the
/// first against an empty image): runs of changed 64-byte blocks plus the
/// new image size.
dbfa::Bytes DiffImage(const dbfa::Bytes& prev, const dbfa::Bytes& next);
/// Turns the previous capture in `image` into the next one; false on a
/// malformed diff.
bool ApplyDiff(dbfa::ByteView diff, dbfa::Bytes* image);

struct ServeInputs {
  uint64_t instances = 0;
  uint64_t ticks = 0;
  /// Tick-major: the diff producing instance i's capture at tick t is
  /// [t * instances + i].
  std::vector<dbfa::Bytes> captures;
  std::vector<uint64_t> log_len;  // same indexing: the log copy's length
  std::vector<uint64_t> attacks;  // same indexing: attacks injected so far
  std::vector<std::vector<dbfa::AuditEntry>> logs;  // per instance, final
};

struct MetaQuery {
  std::string name;  // template
  std::string sql;
  uint64_t rows = 0;
  int64_t checksum = 0;
};

struct MetaqueryInputs {
  dbfa::Bytes disk;
  dbfa::Bytes ram;
  std::vector<MetaQuery> setup_queries;  // the first query of each template
  std::vector<MetaQuery> queries;        // the op sequence
};

void Save(const InvestigateInputs& in, BlobWriter* w);
void Save(const SnapshotInputs& in, BlobWriter* w);
void Save(const ServeInputs& in, BlobWriter* w);
void Save(const MetaqueryInputs& in, BlobWriter* w);

bool Load(BlobReader* r, InvestigateInputs* in);
bool Load(BlobReader* r, SnapshotInputs* in);
bool Load(BlobReader* r, ServeInputs* in);
bool Load(BlobReader* r, MetaqueryInputs* in);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
