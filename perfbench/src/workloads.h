// The measuring side of the four workloads. Each drives the audit pipeline
// through its public API only, on inputs loaded before timing starts, and
// checks every op's output against the generator's ground truth.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/artifacts.h"
#include "detective/dbdetective.h"
#include "inputs.h"
#include "recorder.h"

namespace perfbench {

struct RunOptions {
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for repositories; created and removed by the run.
  std::string work_dir;
  /// Threads of every parallel layer (ParallelCarver, ingest pool, serve
  /// shards, meta-query workers): the machine's core count.
  size_t threads = 1;
};

dbfa::Status RunInvestigate(const InvestigateInputs& in, const RunOptions& opt,
                            Recorder* rec);
dbfa::Status RunSnapshotSeries(const SnapshotInputs& in, const RunOptions& opt,
                               Recorder* rec);
dbfa::Status RunServeFleet(const ServeInputs& in, const RunOptions& opt,
                           Recorder* rec);
dbfa::Status RunMetaquery(const MetaqueryInputs& in, const RunOptions& opt,
                          Recorder* rec);

// ---- shared helpers ---------------------------------------------------------

/// Sorted UnattributedModification keys.
std::vector<std::string> SortedKeys(
    const std::vector<dbfa::UnattributedModification>& mods);

/// Bytes of all regular files under `dir`.
uint64_t DirBytes(const std::string& dir);

/// True when the artifact collections of two carves are identical (stats
/// and string-pool representation excepted, as in the repository's own
/// carve-equivalence checks).
bool SameArtifacts(const dbfa::CarveResult& a, const dbfa::CarveResult& b);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
