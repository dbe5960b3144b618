// snapshot_series: one client feeding successive captures of one database
// into a SnapshotRepo, closed loop. One op ingests the next capture and
// re-matches the delta against the audit log (DetectIncremental). When the
// pre-generated series is exhausted the run starts a fresh repository, so
// every pass repeats the same work; each restart is one set-up sample.
#include <filesystem>
#include <memory>

#include "common/strings.h"
#include "core/carver.h"
#include "snapshot/snapshot_repo.h"
#include "workloads.h"

namespace perfbench {

using namespace dbfa;

Status RunSnapshotSeries(const SnapshotInputs& in, const RunOptions& opt,
                         Recorder* rec) {
  const CarverConfig config = BenchConfig();
  CarveOptions options;
  options.num_threads = opt.threads;
  const size_t captures = in.captures.size();

  std::unique_ptr<SnapshotRepo> repo;
  std::string dir;
  AuditLog log;
  size_t next = captures;  // next capture to ingest
  uint64_t series = 0;
  uint64_t image_bytes = 0;

  auto end_series = [&]() {
    if (repo == nullptr) return;
    if (next == captures) {  // only complete series are comparable
      rec->Sample("repo_bytes_per_image_byte",
                  static_cast<double>(DirBytes(dir)) /
                      static_cast<double>(image_bytes));
    }
    repo.reset();
    std::filesystem::remove_all(dir);
  };

  // Set-up: Create, a cold Ingest and full detection of capture 0.
  auto start_series = [&]() -> Status {
    end_series();
    dir = StrFormat("%s/series-%llu", opt.work_dir.c_str(),
                    static_cast<unsigned long long>(series++));
    log = PrefixLog(in.log, in.log_len[0]);
    rec->Attempt();
    Stopwatch setup;
    DBFA_ASSIGN_OR_RETURN(repo, SnapshotRepo::Create(dir, config, options));
    DBFA_ASSIGN_OR_RETURN(IngestStats cold, repo->Ingest(in.captures[0]));
    DBFA_ASSIGN_OR_RETURN(CarveResult carve,
                          repo->AssembleCarve(cold.snapshot_id));
    DBFA_ASSIGN_OR_RETURN(
        auto mods, DbDetective(&carve, &log).FindUnattributedModifications());
    rec->Sample("setup_s", setup.Seconds());
    if (SortedKeys(mods) != in.expected[0]) {
      rec->Fail("snapshot_series: capture 0 findings differ from ground truth");
    }
    image_bytes = in.captures[0].size();
    next = 1;
    return Status::Ok();
  };

  auto step = [&](bool traced) -> Status {
    if (next == captures) DBFA_RETURN_IF_ERROR(start_series());
    const size_t i = next++;
    ExtendLog(in.log, in.log_len[i], &log);
    const uint64_t bytes_before = DirBytes(dir);
    rec->Attempt();
    Result<IngestStats> ingest = Status::Internal("not run");
    Result<IncrementalDetection> delta = Status::Internal("not run");
    {
      OpScope op(rec, in.bulk[i] != 0 ? "op.bulk" : "op.localized", traced);
      {
        Span span(rec, "snapshot.ingest", op.id());
        ingest = repo->Ingest(in.captures[i]);
      }
      if (ingest.ok()) {
        Span span(rec, "snapshot.detect_incremental", op.id());
        delta = repo->DetectIncremental(ingest->snapshot_id - 1,
                                        ingest->snapshot_id, log);
      }
    }
    if (!ingest.ok()) return ingest.status();
    if (!delta.ok()) return delta.status();
    image_bytes += in.captures[i].size();
    rec->Sample("snapshot.pages_total",
                static_cast<double>(ingest->pages_total));
    rec->Sample("snapshot.pages_reused",
                static_cast<double>(ingest->pages_reused));
    rec->Sample("snapshot.artifacts_reused",
                static_cast<double>(ingest->artifacts_reused));
    rec->Sample("snapshot.artifacts_carved",
                static_cast<double>(ingest->artifacts_carved));
    rec->Sample("snapshot.records_rematched",
                static_cast<double>(delta->records_rematched));
    rec->Sample("snapshot.bytes_written",
                static_cast<double>(DirBytes(dir) - bytes_before));
    if (SortedKeys(delta->modifications) != in.expected[i]) {
      rec->Fail(StrFormat("snapshot_series: capture %zu findings differ from "
                          "ground truth",
                          i));
    }
    return Status::Ok();
  };

  Stopwatch run;
  for (uint64_t k = 0; k == 0 || run.Seconds() < opt.seconds; ++k) {
    DBFA_RETURN_IF_ERROR(step(opt.trace && k % 2 == 1));
  }

  // Once per run, outside timing: the last snapshot reassembles into
  // exactly what a fresh serial carve of its capture yields.
  rec->Attempt();
  const size_t last = next - 1;
  DBFA_ASSIGN_OR_RETURN(CarveResult assembled,
                        repo->AssembleCarve(repo->List().back().id));
  DBFA_ASSIGN_OR_RETURN(CarveResult serial,
                        Carver(config).Carve(in.captures[last]));
  if (!SameArtifacts(assembled, serial)) {
    rec->Fail("snapshot_series: AssembleCarve differs from a serial carve");
  }
  end_series();
  return Status::Ok();
}

}  // namespace perfbench
