#include "metaquery/spill_executor.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "sql/bound_expr.h"
#include "sql/row_codec.h"

namespace dbfa::metaquery_internal {
namespace {

// Recursion cap for grace-join / aggregation re-partitioning. Six levels at
// minimum fanout 2 split any skewed input 64 ways; beyond that the engine
// proceeds over budget rather than thrash (docs/spilling.md).
constexpr int kMaxDepth = 6;
// Scatter fan-out for a join whose right side outgrows the budget. Fixed —
// not sized from the input — because the right side streams into the
// partitions and its total size is unknown when the first byte spills. 32
// keeps partitions under budget for inputs up to ~32x the budget; larger
// partitions recurse with a size-derived fan-out.
constexpr size_t kJoinScatterFanout = 32;
// Maximum runs merged per external-sort pass; bounds merge-time buffers to
// kMergeFanIn block buffers.
constexpr size_t kMergeFanIn = 16;

// Everything an operator needs to spill: where to put files and how much
// memory it may hold (SIZE_MAX when unbounded). `block_target` is the
// payload size spill blocks aim for — a function of the budget alone, so
// spill layout is deterministic.
struct SpillContext {
  SpillManager* manager;
  size_t budget;
  size_t block_target;
};

size_t BlockTarget(size_t budget) {
  return std::clamp<size_t>(budget / 4, 1024, 65536);
}

// Number of partitions for `bytes` of input under `budget`.
size_t Fanout(size_t bytes, size_t budget) {
  return std::clamp<size_t>(bytes / std::max<size_t>(budget, 1) + 1, 2, 32);
}

// splitmix64 finalizer over (hash, seed): re-partitioning a skewed
// partition with seed+1 redistributes keys that collided at this level.
uint64_t SeededMix(uint64_t h, uint64_t seed) {
  uint64_t x = h + (seed + 1) * 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

size_t PartOf(uint64_t hash, uint64_t seed, size_t fanout) {
  return static_cast<size_t>(SeededMix(hash, seed) % fanout);
}

/// Runs body(p) for every partition, on the pool when available. Bodies
/// touch only their own partition's state. The first non-OK status in
/// partition order is returned, so error reporting is deterministic.
Status ForEachPartition(ThreadPool* pool, size_t nparts,
                        const std::function<Status(size_t)>& body) {
  if (pool == nullptr || nparts <= 1) {
    for (size_t p = 0; p < nparts; ++p) {
      DBFA_RETURN_IF_ERROR(body(p));
    }
    return Status::Ok();
  }
  std::vector<Status> statuses(nparts);
  pool->ParallelFor(nparts, [&](size_t p) { statuses[p] = body(p); });
  for (Status& st : statuses) {
    if (!st.ok()) return std::move(st);
  }
  return Status::Ok();
}

// Earliest-row error across partitions. A query fails with the error of
// its first failing row in seq order — what a sequential executor (the
// reference) reports; partitioned operators reproduce that by recording
// each partition's first error and keeping the smallest seq.
struct SeqError {
  bool has = false;
  uint64_t seq = 0;
  Status status;

  void Note(uint64_t s, Status st) {
    if (!has || s < seq) {
      has = true;
      seq = s;
      status = std::move(st);
    }
  }
};

// Earliest-group error for aggregation emit, ordered by group key — the
// order groups are emitted in.
struct KeyError {
  bool has = false;
  Record key;
  Status status;

  void Note(const Record& k, Status st) {
    if (!has || CompareRecords(k, key) < 0) {
      has = true;
      key = k;
      status = std::move(st);
    }
  }
};

// ---- RowSource: replayable seq-ordered row streams -----------------------
//
// Operators hand rows downstream as a *source*: invoking one streams every
// row, in order, into the callback together with its 0-based sequence
// number. Sources are replayable — each invocation restarts from the first
// row — which lets a consumer take an optimistic single-pass strategy and
// fall back to a second, spill-partitioned pass only when the budget forces
// it. Replays are deterministic: they re-scan a relation or re-read
// finished spill runs, so both passes see identical rows and seqs.

using RowFn = std::function<Status(uint64_t, const Record&)>;
using RowSource = std::function<Status(const RowFn&)>;

/// Runs `source` to completion, discarding its rows, and returns its error
/// if it has one, else `s` — an upstream error keeps the precedence it has
/// when every stage input is materialized before the stage runs.
Status DrainThen(const RowSource& source, Status s) {
  DBFA_RETURN_IF_ERROR(
      source([](uint64_t, const Record&) { return Status::Ok(); }));
  return s;
}

// ---- Runs: serialized row sequences in spill files -----------------------
//
// A run is a sequence of entries packed into checksummed blocks. Entries
// never split across blocks; the record encoding is self-delimiting, so a
// block decodes by repeated DecodeRecord until exhausted. A tagged entry
// carries a u64 LE sequence number before the record.

class RunWriter {
 public:
  static Result<RunWriter> Create(SpillContext* ctx) {
    DBFA_ASSIGN_OR_RETURN(SpillFile file, ctx->manager->CreateFile());
    return RunWriter(ctx, std::move(file));
  }

  Status AddRecord(const Record& r) {
    sql::AppendRecord(r, &pending_);
    return MaybeFlush();
  }

  Status AddTagged(uint64_t seq, const Record& r) {
    uint8_t buf[8];
    WriteU64(buf, seq, /*big_endian=*/false);
    pending_.append(AsStringView(ByteView(buf, sizeof(buf))));
    sql::AppendRecord(r, &pending_);
    return MaybeFlush();
  }

  /// Writes the pending partial block; idempotent.
  Status Flush() {
    if (pending_.empty()) return Status::Ok();
    Status s = file_.AppendBlock(pending_);
    pending_.clear();
    return s;
  }

  const SpillFile& file() const { return file_; }

 private:
  RunWriter(SpillContext* ctx, SpillFile file)
      : ctx_(ctx), file_(std::move(file)) {}

  Status MaybeFlush() {
    if (pending_.size() >= ctx_->block_target) return Flush();
    return Status::Ok();
  }

  SpillContext* ctx_;
  SpillFile file_;
  std::string pending_;
};

class RunReader {
 public:
  static Result<RunReader> Open(const SpillFile& file, bool tagged) {
    DBFA_ASSIGN_OR_RETURN(SpillFile::Reader reader, file.OpenReader());
    return RunReader(std::move(reader), tagged);
  }

  /// Reads the next entry. Returns false at end of run. *seq is written
  /// only for tagged runs.
  Result<bool> Next(uint64_t* seq, Record* row) {
    if (pos_ == block_.size()) {
      DBFA_ASSIGN_OR_RETURN(bool more, reader_.NextBlock(&block_));
      if (!more) return false;
      pos_ = 0;
    }
    if (tagged_) {
      if (block_.size() - pos_ < 8) {
        return Status::Corruption("spill run: truncated sequence tag");
      }
      *seq = ReadU64(AsByteView(block_).data() + pos_, /*big_endian=*/false);
      pos_ += 8;
    }
    DBFA_RETURN_IF_ERROR(sql::DecodeRecord(block_, &pos_, row));
    return true;
  }

 private:
  RunReader(SpillFile::Reader reader, bool tagged)
      : reader_(std::move(reader)), tagged_(tagged) {}

  SpillFile::Reader reader_;
  bool tagged_;
  std::string block_;
  size_t pos_ = 0;
};

// ---- TaggedBuffer: (seq, row) pairs with budget-governed spilling --------
//
// Join partitions emit their output as (left seq, combined row) pairs;
// merging partition streams by seq restores the exact in-memory probe
// order. Stored order is append order, which every producer keeps
// seq-ascending.

class TaggedBuffer {
 public:
  explicit TaggedBuffer(SpillContext* ctx) : ctx_(ctx) {}

  Status Add(uint64_t seq, Record row) {
    bytes_ += sql::EstimateRecordMemoryBytes(row) + sizeof(uint64_t);
    if (run_.has_value()) return run_->AddTagged(seq, row);
    mem_.emplace_back(seq, std::move(row));
    if (bytes_ > ctx_->budget) {
      DBFA_ASSIGN_OR_RETURN(RunWriter w, RunWriter::Create(ctx_));
      run_.emplace(std::move(w));
      for (const auto& [s, r] : mem_) {
        DBFA_RETURN_IF_ERROR(run_->AddTagged(s, r));
      }
      mem_.clear();
      mem_.shrink_to_fit();
    }
    return Status::Ok();
  }

  Status Finish() {
    if (run_.has_value()) return run_->Flush();
    return Status::Ok();
  }

  /// Streaming cursor in append order; the buffer must outlive it. *view
  /// points at the in-memory row (zero copy) or at *scratch after a spill
  /// read; it is valid until the next call.
  class Cursor {
   public:
    Result<bool> Next(uint64_t* seq, Record* scratch, const Record** view) {
      if (reader_.has_value()) {
        DBFA_ASSIGN_OR_RETURN(bool more, reader_->Next(seq, scratch));
        *view = scratch;
        return more;
      }
      if (i_ >= mem_->size()) return false;
      *seq = (*mem_)[i_].first;
      *view = &(*mem_)[i_].second;
      ++i_;
      return true;
    }

   private:
    friend class TaggedBuffer;
    const std::vector<std::pair<uint64_t, Record>>* mem_ = nullptr;
    size_t i_ = 0;
    std::optional<RunReader> reader_;
  };

  Result<Cursor> OpenCursor() const {
    Cursor c;
    if (run_.has_value()) {
      DBFA_ASSIGN_OR_RETURN(RunReader r,
                            RunReader::Open(run_->file(), /*tagged=*/true));
      c.reader_.emplace(std::move(r));
    } else {
      c.mem_ = &mem_;
    }
    return c;
  }

 private:
  SpillContext* ctx_;
  std::vector<std::pair<uint64_t, Record>> mem_;
  std::optional<RunWriter> run_;
  size_t bytes_ = 0;
};

/// Merges seq-ascending tagged streams by seq. Seqs are unique across
/// streams (each input row went to exactly one partition), so the heap
/// order is deterministic without a tie-break. Rows are handed out as
/// views into the buffers (or a per-head scratch for spilled parts).
Status MergeTaggedBySeq(
    const std::vector<TaggedBuffer>& parts,
    const std::function<Status(uint64_t, const Record&)>& emit) {
  struct Head {
    TaggedBuffer::Cursor cursor;
    uint64_t seq = 0;
    Record scratch;
    const Record* view = nullptr;
  };
  std::vector<Head> heads(parts.size());
  // Min-heap of (seq, head index); unique seqs make pop order total.
  std::vector<std::pair<uint64_t, size_t>> heap;
  heap.reserve(parts.size());
  auto later = [](const std::pair<uint64_t, size_t>& a,
                  const std::pair<uint64_t, size_t>& b) {
    return a.first > b.first;
  };
  for (size_t i = 0; i < parts.size(); ++i) {
    Head& h = heads[i];
    DBFA_ASSIGN_OR_RETURN(h.cursor, parts[i].OpenCursor());
    DBFA_ASSIGN_OR_RETURN(bool live, h.cursor.Next(&h.seq, &h.scratch, &h.view));
    if (live) heap.push_back({h.seq, i});
  }
  std::make_heap(heap.begin(), heap.end(), later);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    size_t i = heap.back().second;
    heap.pop_back();
    Head& h = heads[i];
    DBFA_RETURN_IF_ERROR(emit(h.seq, *h.view));
    DBFA_ASSIGN_OR_RETURN(bool live, h.cursor.Next(&h.seq, &h.scratch, &h.view));
    if (live) {
      heap.push_back({h.seq, i});
      std::push_heap(heap.begin(), heap.end(), later);
    }
  }
  return Status::Ok();
}

// ---- Grace hash join -----------------------------------------------------

struct JoinPartFiles {
  std::optional<RunWriter> left;   // tagged with the left row's seq
  std::optional<RunWriter> right;  // untagged; relative scan order suffices
  size_t right_bytes = 0;
};

Result<std::vector<JoinPartFiles>> MakeJoinParts(SpillContext* ctx,
                                                 size_t fanout) {
  std::vector<JoinPartFiles> parts(fanout);
  for (JoinPartFiles& p : parts) {
    DBFA_ASSIGN_OR_RETURN(RunWriter lw, RunWriter::Create(ctx));
    DBFA_ASSIGN_OR_RETURN(RunWriter rw, RunWriter::Create(ctx));
    p.left.emplace(std::move(lw));
    p.right.emplace(std::move(rw));
  }
  return parts;
}

Status FlushJoinParts(std::vector<JoinPartFiles>* parts) {
  for (JoinPartFiles& p : *parts) {
    DBFA_RETURN_IF_ERROR(p.left->Flush());
    DBFA_RETURN_IF_ERROR(p.right->Flush());
  }
  return Status::Ok();
}

/// Joins one partition's (tagged left, right) run pair, appending
/// (seq, combined row) pairs to *out in seq-ascending order. When the right
/// side still exceeds the budget — and re-partitioning can shrink it —
/// recurses with the next hash seed; otherwise builds the table in memory
/// regardless (the documented over-budget escape hatch). Predicate
/// evaluation errors are recorded in *err with their left seq instead of
/// failing the partition, so the caller can select the globally first one.
Status JoinPartition(SpillContext* ctx, const SpillFile& left_file,
                     const SpillFile& right_file, size_t right_bytes,
                     size_t parent_right_bytes, size_t left_idx,
                     size_t right_idx, const sql::BoundExpr* fused_where,
                     uint64_t seed, int depth, TaggedBuffer* out,
                     SeqError* err) {
  if (right_bytes > ctx->budget && depth < kMaxDepth &&
      right_bytes < parent_right_bytes) {
    size_t fanout = Fanout(right_bytes, ctx->budget);
    DBFA_ASSIGN_OR_RETURN(std::vector<JoinPartFiles> parts,
                          MakeJoinParts(ctx, fanout));
    {
      DBFA_ASSIGN_OR_RETURN(RunReader r,
                            RunReader::Open(right_file, /*tagged=*/false));
      Record row;
      uint64_t unused = 0;
      while (true) {
        DBFA_ASSIGN_OR_RETURN(bool more, r.Next(&unused, &row));
        if (!more) break;
        size_t p = PartOf(row[right_idx].Hash(), seed, fanout);
        parts[p].right_bytes += sql::EstimateRecordMemoryBytes(row);
        DBFA_RETURN_IF_ERROR(parts[p].right->AddRecord(row));
      }
    }
    {
      DBFA_ASSIGN_OR_RETURN(RunReader r,
                            RunReader::Open(left_file, /*tagged=*/true));
      Record row;
      uint64_t seq = 0;
      while (true) {
        DBFA_ASSIGN_OR_RETURN(bool more, r.Next(&seq, &row));
        if (!more) break;
        size_t p = PartOf(row[left_idx].Hash(), seed, fanout);
        DBFA_RETURN_IF_ERROR(parts[p].left->AddTagged(seq, row));
      }
    }
    DBFA_RETURN_IF_ERROR(FlushJoinParts(&parts));

    std::vector<TaggedBuffer> subouts;
    subouts.reserve(fanout);
    for (size_t p = 0; p < fanout; ++p) subouts.emplace_back(ctx);
    for (size_t p = 0; p < fanout; ++p) {
      DBFA_RETURN_IF_ERROR(JoinPartition(
          ctx, parts[p].left->file(), parts[p].right->file(),
          parts[p].right_bytes, right_bytes, left_idx, right_idx, fused_where,
          seed + 1, depth + 1, &subouts[p], err));
      DBFA_RETURN_IF_ERROR(subouts[p].Finish());
    }
    if (err->has) return Status::Ok();
    return MergeTaggedBySeq(subouts, [out](uint64_t seq, const Record& row) {
      return out->Add(seq, row);
    });
  }

  // Build + probe in memory.
  std::vector<Record> right_rows;
  {
    DBFA_ASSIGN_OR_RETURN(RunReader r,
                          RunReader::Open(right_file, /*tagged=*/false));
    Record row;
    uint64_t unused = 0;
    while (true) {
      DBFA_ASSIGN_OR_RETURN(bool more, r.Next(&unused, &row));
      if (!more) break;
      right_rows.push_back(std::move(row));
    }
  }
  JoinTable table = BuildJoinTable(right_rows, right_idx);
  DBFA_ASSIGN_OR_RETURN(RunReader r,
                        RunReader::Open(left_file, /*tagged=*/true));
  Record row;
  uint64_t seq = 0;
  while (true) {
    DBFA_ASSIGN_OR_RETURN(bool more, r.Next(&seq, &row));
    if (!more) return Status::Ok();
    Status s = ProbeJoinRow(row, left_idx, table, right_rows, fused_where,
                            [out, seq](Record combined) {
                              return out->Add(seq, std::move(combined));
                            });
    if (!s.ok()) {
      err->Note(seq, std::move(s));
      return Status::Ok();
    }
  }
}

/// What a join hands downstream. Source() replays the joined rows in exact
/// in-memory probe order, numbered 0..n-1 — the seq space the next
/// operator builds on. On the fast path the right side's hash table stays
/// in memory and every replay probes the left source as it streams, so
/// joined rows are never buffered. On the partitioned path the seq-tagged
/// partition outputs stay replayable (instead of being merged into yet
/// another buffer), so a downstream aggregation reads the join result
/// without an extra spill round trip.
struct JoinOutput {
  sql::BoundExprPtr fused_where;
  // Fast path: the probe plan.
  RowSource left;
  size_t left_idx = 0;
  std::vector<Record> right_rows;
  JoinTable table;
  // Partitioned path.
  bool partitioned = false;
  std::vector<TaggedBuffer> parts;

  RowSource Source() {
    if (partitioned) {
      return [this](const RowFn& fn) {
        uint64_t seq = 0;
        return MergeTaggedBySeq(parts, [&](uint64_t, const Record& row) {
          return fn(seq++, row);
        });
      };
    }
    // The first probe error is deferred until the left source drains, so a
    // left-side error keeps precedence, and is then returned ahead of any
    // downstream error.
    return [this](const RowFn& fn) {
      Status probe_status;
      uint64_t seq = 0;
      // dbfa:hot-loop-begin -- fast-path join probe, once per left row
      DBFA_RETURN_IF_ERROR(left([&](uint64_t, const Record& row) {
        if (!probe_status.ok()) return Status::Ok();  // drain: left first
        Status s = ProbeJoinRow(
            row, left_idx, table, right_rows, fused_where.get(),
            [&](Record combined) { return fn(seq++, combined); });
        if (!s.ok()) probe_status = std::move(s);
        return Status::Ok();
      }));
      // dbfa:hot-loop-end
      return probe_status;
    };
  }
};

/// The out-of-core join operator, fed by replayable sources. The right
/// side collects in memory and, if it outgrows the budget, scatters into
/// partition files as it streams — it is never buffered whole. If it fits,
/// *out keeps its hash table and probes the left side lazily, whenever its
/// source is replayed (the fast path, exactly the in-memory hash join).
/// Otherwise the left side scatters to matching partitions, which join
/// independently and leave seq-tagged outputs in *out.
///
/// Error ordering matches an executor that materializes the left (FROM)
/// side before the right and probes last, as the reference does: a
/// left-side error beats a right-side scan error, which beats a probe
/// error. Since this operator consumes the right side first, a right-side
/// failure still drains the left source to give a left-side error
/// precedence, and probe errors defer until the left source finishes.
Status JoinOutOfCore(SpillContext* ctx, ThreadPool* pool,
                     const RowSource& left, const RowSource& right,
                     size_t left_idx, size_t right_idx,
                     sql::BoundExprPtr fused_where, JoinOutput* out) {
  out->fused_where = std::move(fused_where);
  std::vector<Record> right_mem;
  size_t right_bytes = 0;
  std::vector<JoinPartFiles> parts;
  auto scatter_right = [&](const Record& row, size_t est) -> Status {
    if (right_idx >= row.size() || row[right_idx].is_null()) {
      return Status::Ok();  // can never match; same as the probe skip
    }
    size_t p = PartOf(row[right_idx].Hash(), /*seed=*/0, parts.size());
    parts[p].right_bytes += est;
    return parts[p].right->AddRecord(row);
  };
  Status right_status = right([&](uint64_t, const Record& row) -> Status {
    size_t est = sql::EstimateRecordMemoryBytes(row);
    right_bytes += est;
    if (parts.empty()) {
      right_mem.push_back(row);
      if (right_bytes <= ctx->budget) return Status::Ok();
      DBFA_ASSIGN_OR_RETURN(parts, MakeJoinParts(ctx, kJoinScatterFanout));
      for (const Record& r : right_mem) {
        DBFA_RETURN_IF_ERROR(
            scatter_right(r, sql::EstimateRecordMemoryBytes(r)));
      }
      right_mem.clear();
      right_mem.shrink_to_fit();
      return Status::Ok();
    }
    return scatter_right(row, est);
  });
  if (!right_status.ok()) return DrainThen(left, std::move(right_status));

  if (parts.empty()) {
    // Fast path: the right side fits; Source() probes left rows as they
    // stream.
    out->table = BuildJoinTable(right_mem, right_idx);
    out->right_rows = std::move(right_mem);
    out->left = left;
    out->left_idx = left_idx;
    return Status::Ok();
  }

  DBFA_RETURN_IF_ERROR(left([&](uint64_t seq, const Record& row) {
    if (left_idx >= row.size() || row[left_idx].is_null()) {
      return Status::Ok();
    }
    size_t p = PartOf(row[left_idx].Hash(), /*seed=*/0, parts.size());
    return parts[p].left->AddTagged(seq, row);
  }));
  DBFA_RETURN_IF_ERROR(FlushJoinParts(&parts));

  out->partitioned = true;
  out->parts.reserve(parts.size());
  for (size_t p = 0; p < parts.size(); ++p) out->parts.emplace_back(ctx);
  std::vector<SeqError> errs(parts.size());
  DBFA_RETURN_IF_ERROR(ForEachPartition(pool, parts.size(), [&](size_t p) {
    DBFA_RETURN_IF_ERROR(JoinPartition(
        ctx, parts[p].left->file(), parts[p].right->file(),
        parts[p].right_bytes, /*parent_right_bytes=*/SIZE_MAX, left_idx,
        right_idx, out->fused_where.get(), /*seed=*/1, /*depth=*/1,
        &out->parts[p], &errs[p]));
    return out->parts[p].Finish();
  }));
  SeqError first;
  for (SeqError& e : errs) {
    if (e.has) first.Note(e.seq, std::move(e.status));
  }
  if (first.has) return std::move(first.status);
  return Status::Ok();
}

// ---- Spillable aggregation ----------------------------------------------
//
// Every group keeps one accumulator set and folds its rows in seq order —
// the reference executor's sequential fold, so SUM/AVG over doubles
// associate identically at every budget and thread count. The group's
// representative row is its first row in seq order. Rows partition by
// group-key hash (a group never splits, and every partition run keeps seq
// order), each partition emits its groups key-sorted, and the key-disjoint
// partition outputs merge by key into the global emission order.

// (group key, output row) pairs, key-sorted. Aggregation output is part of
// the final result, which the budget exempts (docs/spilling.md).
using GroupRows = std::vector<std::pair<Record, Record>>;

struct AggGroup {
  Record rep;
  std::vector<Accumulator> accs;
};
using GroupTable =
    std::unordered_map<Record, AggGroup, RecordHasher, RecordEq>;

// Rough deterministic memory charge of one group for group-table
// accounting; a function of content only, never of container capacity.
size_t GroupBytes(const Record& key, const Record& rep, size_t items) {
  return sql::EstimateRecordMemoryBytes(key) +
         sql::EstimateRecordMemoryBytes(rep) + items * sizeof(Accumulator) +
         112;
}

// dbfa:hot-loop-begin -- aggregation fold, once per input row
/// Folds `row` into its group, creating the group (and charging its bytes
/// to *est) on first sight.
Status FoldRow(const sql::SelectStmt& stmt, const AggPlan& plan,
               const Record& row, GroupTable* groups, size_t* est) {
  Record key;
  DBFA_RETURN_IF_ERROR(MakeGroupKey(stmt, plan, row, &key));
  auto [it, inserted] = groups->try_emplace(std::move(key));
  AggGroup& g = it->second;
  if (inserted) {
    g.rep = row;
    g.accs.resize(stmt.items.size());
    *est += GroupBytes(it->first, g.rep, stmt.items.size());
  }
  return AccumulateRow(stmt, plan, row, &g.accs);
}
// dbfa:hot-loop-end

Status EmitPartitionGroups(const sql::SelectStmt& stmt, const AggPlan& plan,
                           const GroupTable& groups, GroupRows* out,
                           KeyError* emit_err) {
  std::vector<std::pair<const Record*, const AggGroup*>> ordered;
  ordered.reserve(groups.size());
  // dbfa-lint: allow(unordered-iter): feeds the CompareRecords sort below.
  for (const auto& [key, g] : groups) ordered.push_back({&key, &g});
  std::sort(ordered.begin(), ordered.end(), [](const auto& a, const auto& b) {
    return CompareRecords(*a.first, *b.first) < 0;
  });
  for (const auto& [key, g] : ordered) {
    Record row;
    Status s = EmitGroupRow(stmt, plan, g->rep, g->accs, &row);
    if (!s.ok()) {
      emit_err->Note(*key, std::move(s));
      return Status::Ok();
    }
    out->push_back({*key, std::move(row)});
  }
  return Status::Ok();
}

/// Merges key-sorted, key-disjoint partition outputs into *out (key order).
void MergeGroupRows(std::vector<GroupRows> parts, GroupRows* out) {
  std::vector<size_t> pos(parts.size(), 0);
  while (true) {
    int best = -1;
    for (size_t i = 0; i < parts.size(); ++i) {
      if (pos[i] >= parts[i].size()) continue;
      if (best < 0 || CompareRecords(parts[i][pos[i]].first,
                                     parts[best][pos[best]].first) < 0) {
        best = static_cast<int>(i);
      }
    }
    if (best < 0) return;
    out->push_back(std::move(parts[best][pos[best]]));
    ++pos[best];
  }
}

/// Aggregates one partition's tagged run. If the group table outgrows the
/// budget while more than one group exists (and depth permits), the partial
/// table is discarded and the run re-partitions on the next hash seed —
/// re-streaming the file costs I/O but keeps memory bounded. Accumulation
/// errors land in *acc_err (by seq), emit errors in *emit_err (by key).
Status AggregatePartition(SpillContext* ctx, const SpillFile& file,
                          size_t bytes, const sql::SelectStmt& stmt,
                          const AggPlan& plan, uint64_t seed, int depth,
                          GroupRows* out, SeqError* acc_err,
                          KeyError* emit_err) {
  GroupTable groups;
  size_t est = 0;
  bool repartition = false;
  {
    DBFA_ASSIGN_OR_RETURN(RunReader r, RunReader::Open(file, /*tagged=*/true));
    Record row;
    uint64_t seq = 0;
    while (true) {
      DBFA_ASSIGN_OR_RETURN(bool more, r.Next(&seq, &row));
      if (!more) break;
      Status s = FoldRow(stmt, plan, row, &groups, &est);
      if (!s.ok()) {
        acc_err->Note(seq, std::move(s));
        return Status::Ok();
      }
      if (est > ctx->budget && groups.size() > 1 && depth < kMaxDepth) {
        repartition = true;
        break;
      }
    }
  }

  if (!repartition) {
    return EmitPartitionGroups(stmt, plan, groups, out, emit_err);
  }
  groups.clear();

  size_t fanout = Fanout(bytes, ctx->budget);
  std::vector<RunWriter> writers;
  std::vector<size_t> part_bytes(fanout, 0);
  writers.reserve(fanout);
  for (size_t p = 0; p < fanout; ++p) {
    DBFA_ASSIGN_OR_RETURN(RunWriter w, RunWriter::Create(ctx));
    writers.push_back(std::move(w));
  }
  {
    DBFA_ASSIGN_OR_RETURN(RunReader r, RunReader::Open(file, /*tagged=*/true));
    Record row;
    Record key;
    uint64_t seq = 0;
    while (true) {
      DBFA_ASSIGN_OR_RETURN(bool more, r.Next(&seq, &row));
      if (!more) break;
      Status s = MakeGroupKey(stmt, plan, row, &key);
      if (!s.ok()) {
        acc_err->Note(seq, std::move(s));
        return Status::Ok();
      }
      size_t p = PartOf(HashRecord(key), seed, fanout);
      part_bytes[p] += sql::EstimateRecordMemoryBytes(row);
      DBFA_RETURN_IF_ERROR(writers[p].AddTagged(seq, row));
    }
  }
  for (RunWriter& w : writers) {
    DBFA_RETURN_IF_ERROR(w.Flush());
  }

  std::vector<GroupRows> subouts(fanout);
  for (size_t p = 0; p < fanout; ++p) {
    DBFA_RETURN_IF_ERROR(AggregatePartition(
        ctx, writers[p].file(), part_bytes[p], stmt, plan, seed + 1,
        depth + 1, &subouts[p], acc_err, emit_err));
  }
  if (acc_err->has || emit_err->has) return Status::Ok();
  MergeGroupRows(std::move(subouts), out);
  return Status::Ok();
}

/// Replays `rows` into key-hashed partitions (a group never splits) and
/// aggregates them, on the pool when available, into *out (key order).
/// `input_bytes` sizes the fan-out.
Status AggregatePartitioned(SpillContext* ctx, ThreadPool* pool,
                            const sql::SelectStmt& stmt, const AggPlan& plan,
                            const RowSource& rows, size_t input_bytes,
                            GroupRows* out) {
  size_t fanout = Fanout(input_bytes, ctx->budget);
  std::vector<RunWriter> writers;
  std::vector<size_t> part_bytes(fanout, 0);
  writers.reserve(fanout);
  for (size_t p = 0; p < fanout; ++p) {
    DBFA_ASSIGN_OR_RETURN(RunWriter w, RunWriter::Create(ctx));
    writers.push_back(std::move(w));
  }
  SeqError key_err;
  DBFA_RETURN_IF_ERROR(rows([&](uint64_t seq, const Record& row) {
    Record key;
    Status s = MakeGroupKey(stmt, plan, row, &key);
    if (!s.ok()) {
      // Defer: a later row may fail accumulation with a smaller seq than a
      // row failing key extraction here. Resolved by seq after the fact.
      key_err.Note(seq, std::move(s));
      return Status::Ok();
    }
    size_t p = PartOf(HashRecord(key), /*seed=*/0, fanout);
    part_bytes[p] += sql::EstimateRecordMemoryBytes(row);
    return writers[p].AddTagged(seq, row);
  }));
  for (RunWriter& w : writers) {
    DBFA_RETURN_IF_ERROR(w.Flush());
  }

  std::vector<GroupRows> outs(fanout);
  std::vector<SeqError> acc_errs(fanout);
  std::vector<KeyError> emit_errs(fanout);
  DBFA_RETURN_IF_ERROR(ForEachPartition(pool, fanout, [&](size_t p) {
    return AggregatePartition(ctx, writers[p].file(), part_bytes[p], stmt,
                              plan, /*seed=*/1, /*depth=*/1, &outs[p],
                              &acc_errs[p], &emit_errs[p]);
  }));

  SeqError first_acc = std::move(key_err);
  for (SeqError& e : acc_errs) {
    if (e.has) first_acc.Note(e.seq, std::move(e.status));
  }
  if (first_acc.has) return std::move(first_acc.status);
  KeyError first_emit;
  for (KeyError& e : emit_errs) {
    if (e.has) first_emit.Note(e.key, std::move(e.status));
  }
  if (first_emit.has) return std::move(first_emit.status);
  MergeGroupRows(std::move(outs), out);
  return Status::Ok();
}

Status AggregateOutOfCore(SpillContext* ctx, ThreadPool* pool,
                          const sql::SelectStmt& stmt, const AggPlan& plan,
                          const RowSource& rows,
                          const std::function<Status(Record&&)>& emit) {
  // Pass 1 (optimistic): fold the whole input into one group table. The
  // input streams through without ever being buffered; only the group
  // table counts against the budget. Rows fold in seq order, so the first
  // failing row is the query's error — reported once the source drains, so
  // upstream errors keep precedence. If the table outgrows the budget
  // first, it is dropped and pass 2 replays the source through key-hashed
  // partitions.
  GroupTable groups;
  size_t est = 0;
  size_t input_bytes = 0;  // total estimated input size, for pass-2 fanout
  bool over_budget = false;
  SeqError row_err;
  // dbfa:hot-loop-begin -- pass-1 aggregation sweep, once per input row
  DBFA_RETURN_IF_ERROR(rows([&](uint64_t seq, const Record& row) {
    input_bytes += sql::EstimateRecordMemoryBytes(row);
    if (over_budget || row_err.has) return Status::Ok();
    Status s = FoldRow(stmt, plan, row, &groups, &est);
    if (!s.ok()) {
      row_err.Note(seq, std::move(s));
    } else if (est > ctx->budget) {
      over_budget = true;
      groups.clear();
    }
    return Status::Ok();
  }));
  // dbfa:hot-loop-end
  if (row_err.has) return std::move(row_err.status);

  GroupRows merged;
  if (over_budget) {
    DBFA_RETURN_IF_ERROR(AggregatePartitioned(ctx, pool, stmt, plan, rows,
                                              input_bytes, &merged));
  } else {
    KeyError emit_err;
    DBFA_RETURN_IF_ERROR(
        EmitPartitionGroups(stmt, plan, groups, &merged, &emit_err));
    if (emit_err.has) return std::move(emit_err.status);
  }
  if (merged.empty() && stmt.group_by.empty()) {
    // Aggregates over an empty input produce one row.
    Record row;
    DBFA_RETURN_IF_ERROR(EmitEmptyAggregateRow(stmt, &row));
    return emit(std::move(row));
  }
  for (auto& [key, row] : merged) {
    DBFA_RETURN_IF_ERROR(emit(std::move(row)));
  }
  return Status::Ok();
}

// ---- Final collection: ORDER BY (external merge sort) + LIMIT ------------
//
// Without ORDER BY, rows collect in arrival order (the final result is
// budget-exempt) and LIMIT truncates. With ORDER BY, rows buffer up to the
// budget, each full buffer stable-sorts into a consecutive run, and runs
// merge with ties broken by run index — which is exactly std::stable_sort
// over the whole input, the reference executor's sort. ORDER BY resolution
// failures are deferred to Finish so row-level errors upstream surface
// first, matching the reference executor's error ordering.

class FinalCollector {
 public:
  FinalCollector(SpillContext* ctx, const sql::SelectStmt& stmt,
                 std::vector<std::string> columns)
      : ctx_(ctx), stmt_(stmt), columns_(std::move(columns)) {
    if (!stmt_.order_by.empty()) {
      sorting_ = true;
      resolve_status_ = ResolveOrderKeys(stmt_, columns_, &idx_, &desc_);
    }
  }

  Status Add(Record row) {
    if (sorting_ && !resolve_status_.ok()) {
      return Status::Ok();  // query fails at Finish; don't buffer
    }
    mem_bytes_ += sql::EstimateRecordMemoryBytes(row);
    mem_.push_back(std::move(row));
    if (sorting_ && mem_bytes_ > ctx_->budget) return SpillSortedRun();
    return Status::Ok();
  }

  Result<QueryTable> Finish() {
    QueryTable out;
    out.columns = std::move(columns_);
    if (sorting_) {
      DBFA_RETURN_IF_ERROR(resolve_status_);
      if (runs_.empty()) {
        SortBuffer();
        out.rows = std::move(mem_);
      } else {
        if (!mem_.empty()) {
          DBFA_RETURN_IF_ERROR(SpillSortedRun());
        }
        // Multi-pass merge: each pass replaces consecutive groups of up to
        // kMergeFanIn runs with their merge. Groups stay consecutive and
        // in order, so the run-index tie-break keeps global stability.
        while (runs_.size() > kMergeFanIn) {
          std::vector<RunWriter> next;
          for (size_t lo = 0; lo < runs_.size(); lo += kMergeFanIn) {
            size_t hi = std::min(runs_.size(), lo + kMergeFanIn);
            DBFA_ASSIGN_OR_RETURN(RunWriter merged, RunWriter::Create(ctx_));
            DBFA_RETURN_IF_ERROR(
                MergeRuns(lo, hi, [&merged](Record&& row) {
                  return merged.AddRecord(row);
                }));
            DBFA_RETURN_IF_ERROR(merged.Flush());
            next.push_back(std::move(merged));
          }
          runs_ = std::move(next);
        }
        DBFA_RETURN_IF_ERROR(
            MergeRuns(0, runs_.size(), [&out](Record&& row) {
              out.rows.push_back(std::move(row));
              return Status::Ok();
            }));
      }
    } else {
      out.rows = std::move(mem_);
    }
    if (stmt_.limit >= 0 &&
        out.rows.size() > static_cast<size_t>(stmt_.limit)) {
      out.rows.resize(static_cast<size_t>(stmt_.limit));
    }
    return out;
  }

 private:
  void SortBuffer() {
    std::stable_sort(mem_.begin(), mem_.end(),
                     [this](const Record& a, const Record& b) {
                       return OrderKeyLess(a, b, idx_, desc_);
                     });
  }

  Status SpillSortedRun() {
    SortBuffer();
    DBFA_ASSIGN_OR_RETURN(RunWriter w, RunWriter::Create(ctx_));
    for (const Record& r : mem_) {
      DBFA_RETURN_IF_ERROR(w.AddRecord(r));
    }
    DBFA_RETURN_IF_ERROR(w.Flush());
    runs_.push_back(std::move(w));
    mem_.clear();
    mem_bytes_ = 0;
    return Status::Ok();
  }

  /// K-way merges runs_[lo, hi) — consecutive sorted runs — emitting rows
  /// in order; ties prefer the lower run index (stability).
  Status MergeRuns(size_t lo, size_t hi,
                   const std::function<Status(Record&&)>& emit) {
    struct Head {
      std::optional<RunReader> reader;
      Record row;
      bool live = false;
    };
    std::vector<Head> heads(hi - lo);
    for (size_t i = 0; i < heads.size(); ++i) {
      DBFA_ASSIGN_OR_RETURN(RunReader r, RunReader::Open(runs_[lo + i].file(),
                                                         /*tagged=*/false));
      heads[i].reader.emplace(std::move(r));
      uint64_t unused = 0;
      DBFA_ASSIGN_OR_RETURN(heads[i].live,
                            heads[i].reader->Next(&unused, &heads[i].row));
    }
    while (true) {
      int best = -1;
      for (size_t i = 0; i < heads.size(); ++i) {
        if (!heads[i].live) continue;
        if (best < 0 ||
            OrderKeyLess(heads[i].row, heads[best].row, idx_, desc_)) {
          best = static_cast<int>(i);
        }
      }
      if (best < 0) return Status::Ok();
      Head& h = heads[best];
      DBFA_RETURN_IF_ERROR(emit(std::move(h.row)));
      uint64_t unused = 0;
      DBFA_ASSIGN_OR_RETURN(h.live, h.reader->Next(&unused, &h.row));
    }
  }

  SpillContext* ctx_;
  const sql::SelectStmt& stmt_;
  std::vector<std::string> columns_;
  bool sorting_ = false;
  Status resolve_status_;
  std::vector<int> idx_;
  std::vector<bool> desc_;
  std::vector<Record> mem_;
  size_t mem_bytes_ = 0;
  std::vector<RunWriter> runs_;  // sorted runs, in input-chunk order
};

}  // namespace

Result<QueryTable> ExecuteOutOfCore(const sql::SelectStmt& stmt,
                                    const RelationResolver& lookup,
                                    const MetaQueryOptions& options,
                                    ThreadPool* pool, SpillStats* stats) {
  SpillManager manager(options.spill_dir);
  // Budget 0 means unbounded: no operator ever reaches its spill threshold,
  // so the (lazily created) spill directory is never touched.
  size_t budget = options.memory_budget_bytes == 0
                      ? SIZE_MAX
                      : options.memory_budget_bytes;
  SpillContext ctx{&manager, budget, BlockTarget(budget)};
  // Run the pipeline in a lambda so spill stats can be captured on every
  // exit path before ~SpillManager removes the files.
  // Stages are chained as replayable RowSources instead of materialized
  // buffers: the FROM scan feeds the first join's scatter directly, each
  // join's merged output feeds the next stage without an intermediate
  // round trip through a spill file, and aggregation replays its source
  // only when its optimistic single-pass table outgrows the budget.
  // Downstream per-row errors (probe, WHERE, projection) are deferred
  // until the upstream source finishes so that upstream errors keep the
  // precedence they have in the reference executor, where every stage
  // input is materialized before the stage runs.
  auto result = [&]() -> Result<QueryTable> {
    // ---- FROM: a replayable scan source ----------------------------
    DBFA_ASSIGN_OR_RETURN(auto base, lookup(stmt.from.table));
    FrameSet frames;
    frames.Add(stmt.from.EffectiveName(), base->columns());
    RowSource source = [&base](const RowFn& fn) {
      uint64_t seq = 0;
      return base->Scan([&](const Record& r) { return fn(seq++, r); });
    };

    // ---- JOINs -----------------------------------------------------
    bool where_fused = false;
    std::vector<std::unique_ptr<JoinOutput>> join_outs;
    for (size_t j = 0; j < stmt.joins.size(); ++j) {
      const sql::JoinClause& join = stmt.joins[j];
      DBFA_ASSIGN_OR_RETURN(auto right, lookup(join.table.table));
      FrameSet right_frame;
      right_frame.Add(join.table.EffectiveName(), right->columns());
      size_t left_idx = 0;
      size_t right_idx = 0;
      DBFA_RETURN_IF_ERROR(
          ResolveJoinColumns(frames, right_frame, join, &left_idx, &right_idx));

      sql::BoundExprPtr fused_where;
      if (j + 1 == stmt.joins.size() && stmt.where != nullptr) {
        FrameSet combined = frames;
        combined.Add(join.table.EffectiveName(), right->columns());
        DBFA_ASSIGN_OR_RETURN(
            fused_where,
            sql::BindExpr(*stmt.where, [&combined](std::string_view name) {
              return combined.Resolve(name);
            }));
        where_fused = true;
      }

      RowSource right_src = [&right](const RowFn& fn) {
        uint64_t seq = 0;
        return right->Scan([&](const Record& r) { return fn(seq++, r); });
      };
      auto out = std::make_unique<JoinOutput>();
      DBFA_RETURN_IF_ERROR(JoinOutOfCore(&ctx, pool, source, right_src,
                                         left_idx, right_idx,
                                         std::move(fused_where), out.get()));
      source = out->Source();
      join_outs.push_back(std::move(out));
      frames.Add(join.table.EffectiveName(), right->columns());
    }

    // ---- WHERE -----------------------------------------------------
    // A WHERE not fused into a join filters the scan as it streams; nothing
    // is buffered. The filtered source renumbers surviving rows and, once
    // its input is drained, fails with the first failing row's predicate
    // error — so a scan error still wins, and a WHERE error beats every
    // downstream row error, exactly as if the filter had run to completion
    // first.
    sql::BoundExprPtr where;
    if (stmt.where != nullptr && !where_fused) {
      DBFA_ASSIGN_OR_RETURN(
          where, sql::BindExpr(*stmt.where, [&frames](std::string_view name) {
            return frames.Resolve(name);
          }));
      source = [scan = std::move(source), &where](const RowFn& fn) {
        Status where_status;
        uint64_t out = 0;
        // dbfa:hot-loop-begin -- WHERE sweep, once per input row
        DBFA_RETURN_IF_ERROR(scan([&](uint64_t, const Record& row) {
          // After a WHERE error, drain: a later scan error still wins.
          if (!where_status.ok()) return Status::Ok();
          Result<bool> pass = sql::EvalBoundPredicate(*where, row);
          if (!pass.ok()) {
            where_status = pass.status();
            return Status::Ok();
          }
          return pass.value() ? fn(out++, row) : Status::Ok();
        }));
        // dbfa:hot-loop-end
        return where_status;
      };
    }

    // ---- Aggregation -----------------------------------------------
    if (stmt.HasAggregates() || !stmt.group_by.empty()) {
      std::vector<std::string> columns;
      Result<AggPlan> plan = PlanAggregation(stmt, frames, &columns);
      if (!plan.ok()) return DrainThen(source, plan.status());
      FinalCollector collector(&ctx, stmt, std::move(columns));
      DBFA_RETURN_IF_ERROR(AggregateOutOfCore(
          &ctx, pool, stmt, *plan, source, [&collector](Record&& row) {
            return collector.Add(std::move(row));
          }));
      return collector.Finish();
    }

    // ---- Projection ------------------------------------------------
    std::vector<std::string> columns;
    Result<ProjectionPlan> plan = PlanProjection(stmt, frames, &columns);
    if (!plan.ok()) return DrainThen(source, plan.status());
    FinalCollector collector(&ctx, stmt, std::move(columns));
    SeqError proj_err;
    // dbfa:hot-loop-begin -- projection, once per output row
    DBFA_RETURN_IF_ERROR(source([&](uint64_t seq, const Record& row) {
      if (proj_err.has) return Status::Ok();  // drain: upstream errors win
      Record p;
      Status s = ProjectRow(*plan, row, &p);
      if (!s.ok()) {
        proj_err.Note(seq, std::move(s));
        return Status::Ok();
      }
      return collector.Add(std::move(p));
    }));
    // dbfa:hot-loop-end
    if (proj_err.has) return std::move(proj_err.status);
    return collector.Finish();
  }();
  if (stats != nullptr) *stats = manager.stats();
  return result;
}

}  // namespace dbfa::metaquery_internal
