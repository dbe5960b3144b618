#include "metaquery/spill_executor.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
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

// ---- RowSource: replayable row streams ------------------------------------
//
// An input without random access — a relation read at scan time, or a
// partitioned join's merged output — is a *source*: invoking one streams
// every row, in order, into the callback. Sources are replayable — each
// invocation restarts from the first row — which lets a consumer take an
// optimistic single-pass strategy and fall back to a second,
// spill-partitioned pass only when the budget forces it. Replays are
// deterministic: they re-scan a relation or re-read finished spill runs,
// so both passes see identical rows.

using RowFn = std::function<Status(const Record&)>;
using RowSource = std::function<Status(const RowFn&)>;

// ---- Morsel pipelines -----------------------------------------------------
//
// The per-row stages up to the first pipeline breaker — fast-path join
// probes (with the fused WHERE), WHERE and projection — run as one pipeline
// over a driving input. A materialized input splits into kMorselRows row
// ranges that run on the pool; the sink (group fold, final collector or
// spill scatter) consumes morsel outputs strictly in morsel order through a
// bounded window, so it sees exactly the rows, in exactly the order, of a
// serial run. An input without random access (a live table, a partitioned
// join's merged output) is a single morsel, streamed straight into the
// sink; so is every input when there is no pool.

/// One per-row operator. Its stage is 1 + its position in the pipeline
/// (stage 0 is the scan), and stage order is error precedence: the
/// reference executor finishes each stage before the next starts, so an
/// error of an earlier stage beats any later one, and within a stage the
/// first failing row wins.
struct PipeOp {
  enum class Kind { kProbe, kFilter, kProject };
  Kind kind;
  const FlatJoinTable* table = nullptr;  // kProbe
  size_t left_idx = 0;                   // kProbe
  const sql::BoundExpr* expr = nullptr;  // kProbe (fused WHERE) or kFilter
  const ProjectionPlan* plan = nullptr;  // kProject
};

struct Pipeline {
  const std::vector<Record>* rows = nullptr;  // materialized: morsels
  RowSource stream;                           // otherwise: one morsel
  std::vector<PipeOp> ops;
  // Optional, run on each parallel morsel's built rows: drops rows the
  // sink would discard anyway, keeping the rest in order.
  std::function<void(std::vector<Record>*)> prune;
};

/// The lowest-stage per-row error seen so far; within a stage, the first.
struct StageError {
  size_t stage = SIZE_MAX;
  Status status;

  bool has() const { return stage != SIZE_MAX; }
  void Note(size_t s, Status st) {
    if (s < stage) {
      stage = s;
      status = std::move(st);
    }
  }
};

/// Receives a pipeline's output rows with their seq in sink order. `owned`
/// is non-null when the row is a temporary the pipeline built (a join or
/// projection output) that the sink may move from.
using RowSink =
    std::function<Status(uint64_t seq, const Record& row, Record* owned)>;
using EmitFn = std::function<Status(const Record& row, Record* owned)>;

// dbfa:hot-loop-begin -- per-row stages (filter, probe, projection)
/// Runs `row` through ops[i..]; survivors reach `emit`. A stage error is
/// recorded in *err, after which that stage and every later one see no
/// more rows — earlier stages keep running, since one of their errors
/// would still take precedence. A non-OK return is an emit failure.
Status PushRow(const std::vector<PipeOp>& ops, size_t i, const Record& row,
               Record* owned, StageError* err, const EmitFn& emit) {
  if (i + 1 >= err->stage) return Status::Ok();
  if (i == ops.size()) return emit(row, owned);
  const PipeOp& op = ops[i];
  switch (op.kind) {
    case PipeOp::Kind::kFilter: {
      Result<bool> pass = sql::EvalBoundPredicate(*op.expr, row);
      if (!pass.ok()) {
        err->Note(i + 1, pass.status());
        return Status::Ok();
      }
      return *pass ? PushRow(ops, i + 1, row, owned, err, emit)
                   : Status::Ok();
    }
    case PipeOp::Kind::kProject: {
      Record out;
      Status s = ProjectRow(*op.plan, row, &out);
      if (!s.ok()) {
        err->Note(i + 1, std::move(s));
        return Status::Ok();
      }
      return PushRow(ops, i + 1, out, &out, err, emit);
    }
    case PipeOp::Kind::kProbe: {
      Status downstream;
      Status s = ProbeJoinRow(row, op.left_idx, *op.table, op.expr,
                              [&](Record combined) {
                                downstream = PushRow(ops, i + 1, combined,
                                                     &combined, err, emit);
                                return downstream;
                              });
      if (!downstream.ok()) return downstream;
      if (!s.ok()) err->Note(i + 1, std::move(s));
      return Status::Ok();
    }
  }
  return Status::Ok();
}
// dbfa:hot-loop-end

/// Runs `pipe` to completion into `sink`. Returns a scan or sink error as
/// soon as it happens, else the pipeline's first per-row error by stage,
/// then seq — reported only once the input is drained, so a scan error
/// keeps precedence over deferred row errors. Once any row has failed, the
/// sink receives no further rows.
Status RunPipeline(const Pipeline& pipe, ThreadPool* pool,
                   const RowSink& sink) {
  StageError err;
  uint64_t seq = 0;
  EmitFn to_sink = [&](const Record& row, Record* owned) {
    return sink(seq++, row, owned);
  };
  if (pipe.rows == nullptr) {
    DBFA_RETURN_IF_ERROR(pipe.stream([&](const Record& row) {
      return PushRow(pipe.ops, 0, row, nullptr, &err, to_sink);
    }));
    return err.has() ? std::move(err.status) : Status::Ok();
  }

  const std::vector<Record>& rows = *pipe.rows;
  const size_t morsels = MorselCount(rows.size());
  if (pool == nullptr || morsels <= 1) {
    // dbfa:hot-loop-begin -- inline morsels, once per scanned row
    for (const Record& row : rows) {
      DBFA_RETURN_IF_ERROR(PushRow(pipe.ops, 0, row, nullptr, &err, to_sink));
    }
    // dbfa:hot-loop-end
    return err.has() ? std::move(err.status) : Status::Ok();
  }

  // Each morsel buffers its survivors — built rows by value, base rows by
  // pointer — and its own first error; the window bounds how many morsel
  // outputs exist at once.
  struct MorselOut {
    std::vector<Record> owned;
    std::vector<const Record*> borrowed;
    StageError err;
  };
  std::vector<MorselOut> outs(morsels);
  Status sink_status;
  pool->OrderedFor(
      morsels, 2 * pool->thread_count(),
      [&](size_t m) {
        MorselOut& out = outs[m];
        EmitFn collect = [&out](const Record& row, Record* owned) {
          if (owned != nullptr) {
            out.owned.push_back(std::move(*owned));
          } else {
            out.borrowed.push_back(&row);
          }
          return Status::Ok();
        };
        const size_t end = std::min(rows.size(), (m + 1) * kMorselRows);
        // dbfa:hot-loop-begin -- one morsel on a worker, once per row
        for (size_t r = m * kMorselRows; r < end; ++r) {
          Status s = PushRow(pipe.ops, 0, rows[r], nullptr, &out.err, collect);
          if (!s.ok()) return;  // unreachable: collect never fails
        }
        // dbfa:hot-loop-end
        if (pipe.prune) pipe.prune(&out.owned);
      },
      [&](size_t m) {
        MorselOut out = std::move(outs[m]);
        if (!err.has()) {
          for (Record& row : out.owned) {
            sink_status = to_sink(row, &row);
            if (!sink_status.ok()) return false;
          }
          for (const Record* row : out.borrowed) {
            sink_status = to_sink(*row, nullptr);
            if (!sink_status.ok()) return false;
          }
        }
        if (out.err.has()) err.Note(out.err.stage, std::move(out.err.status));
        return true;
      });
  DBFA_RETURN_IF_ERROR(sink_status);
  return err.has() ? std::move(err.status) : Status::Ok();
}

/// Runs `pipe` to completion, discarding its rows, and returns its error
/// if it has one, else `s` — an upstream error keeps the precedence it has
/// when every stage input is materialized before the stage runs.
Status DrainThen(const Pipeline& pipe, ThreadPool* pool, Status s) {
  DBFA_RETURN_IF_ERROR(RunPipeline(
      pipe, pool,
      [](uint64_t, const Record&, Record*) { return Status::Ok(); }));
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
    DBFA_ASSIGN_OR_RETURN(bool live,
                          h.cursor.Next(&h.seq, &h.scratch, &h.view));
    if (live) heap.push_back({h.seq, i});
  }
  std::make_heap(heap.begin(), heap.end(), later);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    size_t i = heap.back().second;
    heap.pop_back();
    Head& h = heads[i];
    DBFA_RETURN_IF_ERROR(emit(h.seq, *h.view));
    DBFA_ASSIGN_OR_RETURN(bool live,
                          h.cursor.Next(&h.seq, &h.scratch, &h.view));
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
  FlatJoinTable table(right_rows, right_idx, /*pool=*/nullptr);
  DBFA_ASSIGN_OR_RETURN(RunReader r,
                        RunReader::Open(left_file, /*tagged=*/true));
  Record row;
  uint64_t seq = 0;
  while (true) {
    DBFA_ASSIGN_OR_RETURN(bool more, r.Next(&seq, &row));
    if (!more) return Status::Ok();
    Status s = ProbeJoinRow(row, left_idx, table, fused_where,
                            [out, seq](Record combined) {
                              return out->Add(seq, std::move(combined));
                            });
    if (!s.ok()) {
      err->Note(seq, std::move(s));
      return Status::Ok();
    }
  }
}

/// What a join hands downstream. On the fast path, `table` indexes the
/// right side in memory and the join becomes a probe stage of the left
/// side's pipeline, so joined rows are never buffered. On the partitioned
/// path the seq-tagged partition outputs stay replayable, and Source()
/// streams them in exact in-memory probe order — so a downstream
/// aggregation reads the join result without an extra spill round trip.
struct JoinOutput {
  sql::BoundExprPtr fused_where;
  // Fast path. `right` keeps the indexed rows alive; a right side read at
  // scan time (a live table) is collected into `scanned_right` first.
  std::shared_ptr<const Relation> right;
  std::vector<Record> scanned_right;
  std::optional<FlatJoinTable> table;
  // Partitioned path.
  std::vector<TaggedBuffer> parts;

  RowSource Source() const {
    return [this](const RowFn& fn) {
      return MergeTaggedBySeq(
          parts, [&fn](uint64_t, const Record& row) { return fn(row); });
    };
  }
};

/// The out-of-core join operator. The right side is measured against the
/// budget first. A materialized right relation is charged the estimated
/// size of its rows — what holding them costs — but is indexed in place;
/// a right side read at scan time collects in memory as it streams. If
/// either outgrows the budget, the right rows scatter into partition
/// files instead. If the right side fits, *out keeps its hash table and
/// the caller appends a probe stage to the left pipeline (the fast path,
/// exactly the in-memory hash join). Otherwise the left pipeline runs into
/// matching partitions, which join independently and leave seq-tagged
/// outputs in *out.
///
/// Error ordering matches an executor that materializes the left (FROM)
/// side before the right and probes last, as the reference does: a
/// left-side error beats a right-side scan error, which beats a probe
/// error. Since this operator consumes the right side first, a right-side
/// failure still drains the left pipeline to give a left-side error
/// precedence, and probe errors defer until the left side finishes.
Status JoinOutOfCore(SpillContext* ctx, ThreadPool* pool,
                     const Pipeline& left,
                     std::shared_ptr<const Relation> right, size_t left_idx,
                     size_t right_idx, sql::BoundExprPtr fused_where,
                     JoinOutput* out) {
  out->fused_where = std::move(fused_where);
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
  const std::vector<Record>* right_rows = right->materialized_rows();
  Status right_status = [&]() -> Status {
    if (right_rows == nullptr) {
      right_rows = &out->scanned_right;
      std::vector<Record>& held = out->scanned_right;
      return right->Scan([&](const Record& row) -> Status {
        size_t est = sql::EstimateRecordMemoryBytes(row);
        right_bytes += est;
        if (!parts.empty()) return scatter_right(row, est);
        held.push_back(row);
        if (right_bytes <= ctx->budget) return Status::Ok();
        DBFA_ASSIGN_OR_RETURN(parts, MakeJoinParts(ctx, kJoinScatterFanout));
        for (const Record& r : held) {
          DBFA_RETURN_IF_ERROR(
              scatter_right(r, sql::EstimateRecordMemoryBytes(r)));
        }
        held.clear();
        held.shrink_to_fit();
        return Status::Ok();
      });
    }
    if (ctx->budget == SIZE_MAX) return Status::Ok();  // always fits
    for (const Record& row : *right_rows) {
      right_bytes += sql::EstimateRecordMemoryBytes(row);
      if (right_bytes > ctx->budget) break;
    }
    if (right_bytes <= ctx->budget) return Status::Ok();
    DBFA_ASSIGN_OR_RETURN(parts, MakeJoinParts(ctx, kJoinScatterFanout));
    for (const Record& row : *right_rows) {
      DBFA_RETURN_IF_ERROR(
          scatter_right(row, sql::EstimateRecordMemoryBytes(row)));
    }
    return Status::Ok();
  }();
  if (!right_status.ok()) {
    return DrainThen(left, pool, std::move(right_status));
  }

  if (parts.empty()) {
    out->right = std::move(right);
    out->table.emplace(*right_rows, right_idx, pool);
    return Status::Ok();
  }

  DBFA_RETURN_IF_ERROR(RunPipeline(
      left, pool, [&](uint64_t seq, const Record& row, Record*) -> Status {
        if (left_idx >= row.size() || row[left_idx].is_null()) {
          return Status::Ok();
        }
        size_t p = PartOf(row[left_idx].Hash(), /*seed=*/0, parts.size());
        return parts[p].left->AddTagged(seq, row);
      }));
  DBFA_RETURN_IF_ERROR(FlushJoinParts(&parts));

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
                            const Pipeline& rows, size_t input_bytes,
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
  DBFA_RETURN_IF_ERROR(RunPipeline(rows, pool, [&](uint64_t seq,
                                                   const Record& row,
                                                   Record*) -> Status {
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
                          const Pipeline& rows,
                          const std::function<Status(Record&&)>& emit) {
  // Pass 1 (optimistic): fold the whole input into one group table. The
  // pipeline delivers rows in seq order and never buffers more than its
  // in-flight morsels; only the group table counts against the budget.
  // Rows fold in seq order, so the first failing row is the query's error —
  // reported once the pipeline drains, so upstream errors keep precedence.
  // If the table outgrows the budget first, it is dropped and pass 2
  // replays the pipeline through key-hashed partitions.
  GroupTable groups;
  size_t est = 0;
  size_t input_bytes = 0;  // total estimated input size, for pass-2 fanout
  bool over_budget = false;
  SeqError row_err;
  // dbfa:hot-loop-begin -- pass-1 aggregation sweep, once per input row
  DBFA_RETURN_IF_ERROR(RunPipeline(rows, pool, [&](uint64_t seq,
                                                   const Record& row,
                                                   Record*) -> Status {
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

// ---- Final collection: ORDER BY (top-k or external merge sort) + LIMIT ----
//
// Without ORDER BY, rows collect in arrival order (the final result is
// budget-exempt) up to the LIMIT. ORDER BY with LIMIT k keeps only the best
// k rows ordered by (sort key, arrival order) — exactly the first k rows of
// a stable sort. Being at most the final result, they are budget-exempt
// and never spill. ORDER BY without LIMIT buffers rows up to the budget,
// each full buffer stable-sorts into a consecutive run, and runs merge with
// ties broken by run index — which is exactly std::stable_sort over the
// whole input, the reference executor's sort. ORDER BY resolution failures
// are deferred to Finish so row-level errors upstream surface first,
// matching the reference executor's error ordering.

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

  /// Reduces one morsel's rows, consecutive in arrival order, to those
  /// that can still reach the top k: a row with k better rows (by sort
  /// key, then arrival) beside it in its own morsel never will. Keeps the
  /// survivors in order. Safe to call from several threads at once.
  void PruneMorsel(std::vector<Record>* rows) const {
    if (!sorting_ || stmt_.limit < 0 || !resolve_status_.ok()) return;
    const size_t k = static_cast<size_t>(stmt_.limit);
    if (rows->size() <= k) return;
    std::vector<uint32_t> order(rows->size());
    for (size_t i = 0; i < order.size(); ++i) {
      order[i] = static_cast<uint32_t>(i);
    }
    std::nth_element(order.begin(), order.begin() + k, order.end(),
                     [&](uint32_t a, uint32_t b) {
                       const Record& ra = (*rows)[a];
                       const Record& rb = (*rows)[b];
                       if (OrderKeyLess(ra, rb, idx_, desc_)) return true;
                       if (OrderKeyLess(rb, ra, idx_, desc_)) return false;
                       return a < b;
                     });
    order.resize(k);
    std::sort(order.begin(), order.end());
    std::vector<Record> kept;
    kept.reserve(k);
    for (uint32_t i : order) kept.push_back(std::move((*rows)[i]));
    *rows = std::move(kept);
  }

  Status Add(Record row) {
    if (sorting_ && !resolve_status_.ok()) {
      return Status::Ok();  // query fails at Finish; don't buffer
    }
    const bool limited = stmt_.limit >= 0;
    const size_t limit = static_cast<size_t>(stmt_.limit);
    if (sorting_ && limited) {
      AddTopK(std::move(row), limit);
      return Status::Ok();
    }
    if (limited && mem_.size() >= limit) return Status::Ok();
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
      if (stmt_.limit >= 0) {
        std::sort_heap(top_.begin(), top_.end(), TopKBefore(this));
        out.rows.reserve(top_.size());
        for (auto& [seq, row] : top_) out.rows.push_back(std::move(row));
      } else if (runs_.empty()) {
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
    return out;
  }

 private:
  // Strict (sort key, arrival seq) order: the order of a stable sort.
  struct TopKBefore {
    explicit TopKBefore(const FinalCollector* collector) : fc(collector) {}
    bool operator()(const std::pair<uint64_t, Record>& a,
                    const std::pair<uint64_t, Record>& b) const {
      if (OrderKeyLess(a.second, b.second, fc->idx_, fc->desc_)) return true;
      if (OrderKeyLess(b.second, a.second, fc->idx_, fc->desc_)) return false;
      return a.first < b.first;
    }
    const FinalCollector* fc;
  };

  /// Keeps the best `k` rows in a max-heap whose top is the worst kept
  /// row. A newcomer arrives after every kept row, so it displaces the top
  /// only when its sort key is strictly smaller.
  void AddTopK(Record row, size_t k) {
    const uint64_t seq = arrivals_++;
    if (top_.size() < k) {
      top_.emplace_back(seq, std::move(row));
      std::push_heap(top_.begin(), top_.end(), TopKBefore(this));
      return;
    }
    if (k == 0 || !OrderKeyLess(row, top_.front().second, idx_, desc_)) return;
    std::pop_heap(top_.begin(), top_.end(), TopKBefore(this));
    top_.back() = {seq, std::move(row)};
    std::push_heap(top_.begin(), top_.end(), TopKBefore(this));
  }

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
  std::vector<std::pair<uint64_t, Record>> top_;  // (arrival seq, row)
  uint64_t arrivals_ = 0;
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
  // Run the query in a lambda so spill stats can be captured on every exit
  // path before ~SpillManager removes the files.
  // The FROM scan drives a morsel pipeline (RunPipeline): fast-path join
  // probes, WHERE and projection are appended to it as per-row stages, and
  // a pipeline breaker — a partitioned join's scatter, the group fold, the
  // final collector — runs it into its sink. Nothing is materialized
  // between stages unless an operator spills; aggregation replays the
  // pipeline only when its optimistic single-pass table outgrows the
  // budget. Per-row errors are deferred until the input drains, so
  // upstream errors keep the precedence they have in the reference
  // executor, where every stage input is materialized before the stage
  // runs.
  // The pools of every relation read: rows can carry their interned cells
  // into the result.
  StringPoolSet pools;
  auto result = [&]() -> Result<QueryTable> {
    // ---- FROM: the pipeline's driving input --------------------------
    DBFA_ASSIGN_OR_RETURN(auto base, lookup(stmt.from.table));
    pools.Add(base->string_pool());
    FrameSet frames;
    frames.Add(stmt.from.EffectiveName(), base->columns());
    Pipeline pipe;
    pipe.rows = base->materialized_rows();
    if (pipe.rows == nullptr) {
      pipe.stream = [&base](const RowFn& fn) { return base->Scan(fn); };
    }

    // ---- JOINs -----------------------------------------------------
    bool where_fused = false;
    std::vector<std::unique_ptr<JoinOutput>> join_outs;
    for (size_t j = 0; j < stmt.joins.size(); ++j) {
      const sql::JoinClause& join = stmt.joins[j];
      DBFA_ASSIGN_OR_RETURN(auto right, lookup(join.table.table));
      pools.Add(right->string_pool());
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

      auto out = std::make_unique<JoinOutput>();
      frames.Add(join.table.EffectiveName(), right->columns());
      DBFA_RETURN_IF_ERROR(JoinOutOfCore(&ctx, pool, pipe, std::move(right),
                                         left_idx, right_idx,
                                         std::move(fused_where), out.get()));
      if (out->table.has_value()) {
        PipeOp probe{PipeOp::Kind::kProbe};
        probe.table = &*out->table;
        probe.left_idx = left_idx;
        probe.expr = out->fused_where.get();
        pipe.ops.push_back(probe);
      } else {
        Pipeline joined;
        joined.stream = out->Source();
        pipe = std::move(joined);
      }
      join_outs.push_back(std::move(out));
    }

    // ---- WHERE -----------------------------------------------------
    // A WHERE not fused into a join filters rows as a per-row stage;
    // nothing is buffered.
    sql::BoundExprPtr where;
    if (stmt.where != nullptr && !where_fused) {
      DBFA_ASSIGN_OR_RETURN(
          where, sql::BindExpr(*stmt.where, [&frames](std::string_view name) {
            return frames.Resolve(name);
          }));
      PipeOp filter{PipeOp::Kind::kFilter};
      filter.expr = where.get();
      pipe.ops.push_back(filter);
    }

    // ---- Aggregation -----------------------------------------------
    if (stmt.HasAggregates() || !stmt.group_by.empty()) {
      std::vector<std::string> columns;
      Result<AggPlan> plan = PlanAggregation(stmt, frames, &columns);
      if (!plan.ok()) return DrainThen(pipe, pool, plan.status());
      FinalCollector collector(&ctx, stmt, std::move(columns));
      DBFA_RETURN_IF_ERROR(AggregateOutOfCore(
          &ctx, pool, stmt, *plan, pipe, [&collector](Record&& row) {
            return collector.Add(std::move(row));
          }));
      return collector.Finish();
    }

    // ---- Projection ------------------------------------------------
    std::vector<std::string> columns;
    Result<ProjectionPlan> plan = PlanProjection(stmt, frames, &columns);
    if (!plan.ok()) return DrainThen(pipe, pool, plan.status());
    PipeOp project{PipeOp::Kind::kProject};
    project.plan = &*plan;
    pipe.ops.push_back(project);
    FinalCollector collector(&ctx, stmt, std::move(columns));
    pipe.prune = [&collector](std::vector<Record>* rows) {
      collector.PruneMorsel(rows);
    };
    DBFA_RETURN_IF_ERROR(RunPipeline(
        pipe, pool, [&collector](uint64_t, const Record& row, Record* owned) {
          return collector.Add(owned != nullptr ? std::move(*owned) : row);
        }));
    return collector.Finish();
  }();
  if (stats != nullptr) *stats = manager.stats();
  if (result.ok()) result->string_pools = std::move(pools);
  return result;
}

}  // namespace dbfa::metaquery_internal
