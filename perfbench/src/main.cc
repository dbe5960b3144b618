// pipeline_bench: the process half of the pipeline benchmark. perfbench/run.py
// calls it twice per run:
//
//   pipeline_bench generate WORKLOAD SEED INPUTS
//       builds the workload's inputs from SEED and writes them to INPUTS;
//       prints {"generate_s": ..., "input_bytes": ...}.
//   pipeline_bench run WORKLOAD SEED INPUTS SECONDS TRACE WORKDIR
//       loads INPUTS, measures for SECONDS (TRACE=1 records spans), and
//       prints the run document described in recorder.h.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "generate.h"
#include "recorder.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr const char* kMagic = "dbfa-perfbench-inputs v1";

template <typename Inputs>
dbfa::Status WriteInputs(const Inputs& inputs, const std::string& workload,
                         uint64_t seed, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return dbfa::Status::IoError("cannot create " + path);
  BlobWriter w(f);
  w.Str(kMagic);
  w.Str(workload);
  w.U64(seed);
  Save(inputs, &w);
  bool ok = w.ok();
  ok = std::fclose(f) == 0 && ok;
  return ok ? dbfa::Status::Ok()
            : dbfa::Status::IoError("cannot write " + path);
}

template <typename Inputs>
dbfa::Status ReadInputs(const std::string& path, const std::string& workload,
                        uint64_t seed, Inputs* inputs) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return dbfa::Status::IoError("cannot open " + path);
  BlobReader r(f);
  bool ok = r.Str() == kMagic && r.Str() == workload && r.U64() == seed &&
            Load(&r, inputs);
  std::fclose(f);
  return ok ? dbfa::Status::Ok()
            : dbfa::Status::Corruption("bad inputs file " + path);
}

template <typename Inputs>
int Generate(dbfa::Status (*generate)(uint64_t, Inputs*),
             const std::string& workload, uint64_t seed,
             const std::string& path) {
  Stopwatch clock;
  Inputs inputs;
  dbfa::Status status = generate(seed, &inputs);
  double seconds = clock.Seconds();
  if (status.ok()) status = WriteInputs(inputs, workload, seed, path);
  if (!status.ok()) {
    std::fprintf(stderr, "generate %s: %s\n", workload.c_str(),
                 status.ToString().c_str());
    return 1;
  }
  const auto bytes =
      static_cast<unsigned long long>(std::filesystem::file_size(path));
  std::printf("{\"generate_s\": %.17g, \"input_bytes\": %llu}\n", seconds,
              bytes);
  return 0;
}

template <typename Inputs>
int Run(dbfa::Status (*run)(const Inputs&, const RunOptions&, Recorder*),
        const std::string& workload, uint64_t seed, const std::string& path,
        const RunOptions& options) {
  Recorder rec(options.trace);
  dbfa::Status status = [&]() -> dbfa::Status {
    Inputs inputs;
    DBFA_RETURN_IF_ERROR(ReadInputs(path, workload, seed, &inputs));
    std::error_code ec;
    std::filesystem::create_directories(options.work_dir, ec);
    if (ec) return dbfa::Status::IoError("cannot create " + options.work_dir);
    dbfa::Status result = run(inputs, options, &rec);
    std::filesystem::remove_all(options.work_dir, ec);
    return result;
  }();
  if (!status.ok()) rec.Fail("run aborted: " + status.ToString());
  rec.Write(stdout, workload, seed);
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: pipeline_bench generate WORKLOAD SEED INPUTS\n"
               "       pipeline_bench run WORKLOAD SEED INPUTS SECONDS TRACE "
               "WORKDIR\n");
  return 2;
}

int Main(int argc, char** argv) {
  if (argc < 5) return Usage();
  const std::string mode = argv[1];
  const std::string workload = argv[2];
  const uint64_t seed = std::strtoull(argv[3], nullptr, 10);
  const std::string path = argv[4];
  if (mode == "generate" && argc == 5) {
    if (workload == "investigate") {
      return Generate(GenerateInvestigate, workload, seed, path);
    }
    if (workload == "snapshot_series") {
      return Generate(GenerateSnapshotSeries, workload, seed, path);
    }
    if (workload == "serve_fleet") {
      return Generate(GenerateServeFleet, workload, seed, path);
    }
    if (workload == "metaquery") {
      return Generate(GenerateMetaquery, workload, seed, path);
    }
    return Usage();
  }
  if (mode != "run" || argc != 8) return Usage();
  RunOptions options;
  options.seconds = std::strtod(argv[5], nullptr);
  options.trace = std::string(argv[6]) == "1";
  options.work_dir = argv[7];
  options.threads = std::max(1u, std::thread::hardware_concurrency());
  if (workload == "investigate") {
    return Run(RunInvestigate, workload, seed, path, options);
  }
  if (workload == "snapshot_series") {
    return Run(RunSnapshotSeries, workload, seed, path, options);
  }
  if (workload == "serve_fleet") {
    return Run(RunServeFleet, workload, seed, path, options);
  }
  if (workload == "metaquery") {
    return Run(RunMetaquery, workload, seed, path, options);
  }
  return Usage();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
