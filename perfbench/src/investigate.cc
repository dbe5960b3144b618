// investigate: the dbfa_detect path, closed loop with one investigator. One
// op carves the disk image on the parallel carver, carves the RAM snapshot,
// and runs DBDetective over both.
#include <memory>

#include "core/carver.h"
#include "core/parallel_carver.h"
#include "workloads.h"

namespace perfbench {

using namespace dbfa;

namespace {

constexpr int kSetupRepeats = 3;

}  // namespace

Status RunInvestigate(const InvestigateInputs& in, const RunOptions& opt,
                      Recorder* rec) {
  const CarverConfig config = BenchConfig();
  const AuditLog log = PrefixLog(in.log, in.log.size());
  CarveOptions disk_options;
  disk_options.num_threads = opt.threads;
  CarveOptions ram_options;
  ram_options.scan_step = config.params.page_size;
  const Carver ram_carver(config, ram_options);
  std::unique_ptr<ParallelCarver> carver;

  auto investigate = [&](bool traced, bool timed) {
    rec->Attempt();
    CarveResult disk;
    CarveResult ram;
    DetectiveReport report;
    Status status = Status::Ok();
    {
      OpScope op(rec, "op", traced, timed);
      status = [&]() -> Status {
        {
          Span span(rec, "core.carve_disk", op.id());
          DBFA_ASSIGN_OR_RETURN(disk, carver->Carve(in.disk));
        }
        {
          Span span(rec, "core.carve_ram", op.id());
          DBFA_ASSIGN_OR_RETURN(ram, ram_carver.Carve(in.ram));
        }
        Span span(rec, "detective.analyze", op.id());
        DBFA_ASSIGN_OR_RETURN(report,
                              DbDetective(&disk, &log, &ram).Analyze());
        return Status::Ok();
      }();
    }
    if (!status.ok()) {
      rec->Fail("investigate: " + status.ToString());
      return;
    }
    rec->Sample("core.pages_carved", static_cast<double>(disk.pages.size()));
    rec->Sample("core.records_carved",
                static_cast<double>(disk.records.size()));
    rec->Sample("detective.records_checked",
                static_cast<double>(report.deleted_records_checked +
                                    report.active_records_checked));
    rec->Sample("detective.findings",
                static_cast<double>(report.modifications.size()));
    if (SortedKeys(report.modifications) != in.expected ||
        !report.reads.empty()) {
      rec->Fail("investigate: findings differ from the injected attack");
    }
  };

  // Set-up: worker-pool creation plus the first investigation.
  for (int k = 0; k < kSetupRepeats; ++k) {
    carver.reset();
    Stopwatch setup;
    carver = std::make_unique<ParallelCarver>(config, disk_options);
    investigate(/*traced=*/false, /*timed=*/false);
    rec->Sample("setup_s", setup.Seconds());
  }

  Stopwatch run;
  for (uint64_t k = 0; k == 0 || run.Seconds() < opt.seconds; ++k) {
    investigate(opt.trace && k % 2 == 1, /*timed=*/true);
  }
  return Status::Ok();
}

}  // namespace perfbench
