// Seeded input generation for the pipeline workloads. Runs in its own
// process (`pipeline_bench generate`), so the DBMS, the synthetic workloads
// and the fleet simulator never share a process with a timed region.
#ifndef PERFBENCH_GENERATE_H_
#define PERFBENCH_GENERATE_H_

#include <cstdint>

#include "common/status.h"
#include "inputs.h"

namespace perfbench {

dbfa::Status GenerateInvestigate(uint64_t seed, InvestigateInputs* out);
dbfa::Status GenerateSnapshotSeries(uint64_t seed, SnapshotInputs* out);
dbfa::Status GenerateServeFleet(uint64_t seed, ServeInputs* out);
dbfa::Status GenerateMetaquery(uint64_t seed, MetaqueryInputs* out);

}  // namespace perfbench

#endif  // PERFBENCH_GENERATE_H_
