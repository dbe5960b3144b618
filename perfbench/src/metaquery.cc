// metaquery: one investigator asking Section II-C meta-queries over a carved
// disk image and RAM snapshot, closed loop. Set-up carves and registers
// both once; one op parses and executes one query drawn from six templates.
#include <memory>
#include <variant>

#include "common/strings.h"
#include "core/carver.h"
#include "core/parallel_carver.h"
#include "metaquery/session.h"
#include "sql/parser.h"
#include "workloads.h"

namespace perfbench {

using namespace dbfa;

namespace {

constexpr int kSetupRepeats = 3;

/// The carves and the session registered over them; the session is
/// declared last so it is destroyed first.
struct Investigation {
  CarveResult disk;
  CarveResult ram;
  std::unique_ptr<MetaQuerySession> session;
};

}  // namespace

Status RunMetaquery(const MetaqueryInputs& in, const RunOptions& opt,
                    Recorder* rec) {
  const CarverConfig config = BenchConfig();
  CarveOptions disk_options;
  disk_options.num_threads = opt.threads;
  CarveOptions ram_options;
  ram_options.scan_step = config.params.page_size;
  MetaQueryOptions query_options;
  query_options.num_threads = opt.threads;
  std::unique_ptr<Investigation> inv;

  auto run_query = [&](const MetaQuery& q, bool traced, bool timed) {
    rec->Attempt();
    const std::string op_name = "op." + q.name;
    Result<QueryTable> table = Status::Internal("not run");
    {
      OpScope op(rec, op_name.c_str(), traced, timed);
      Result<sql::Statement> stmt = Status::Internal("not run");
      {
        Span span(rec, "sql.parse", op.id());
        stmt = sql::ParseStatement(q.sql);
      }
      if (!stmt.ok()) {
        table = stmt.status();
      } else if (!std::holds_alternative<sql::SelectStmt>(*stmt)) {
        table = Status::InvalidArgument("not a SELECT");
      } else {
        Span span(rec, "metaquery.execute", op.id());
        table = inv->session->Execute(std::get<sql::SelectStmt>(*stmt));
      }
    }
    if (!table.ok()) {
      rec->Fail(q.name + ": " + table.status().ToString());
      return;
    }
    int64_t checksum = 0;
    for (const Record& row : table->rows) {
      for (const Value& v : row) checksum += CellChecksum(v);
    }
    if (timed) {
      rec->Sample("metaquery.rows." + q.name,
                  static_cast<double>(table->rows.size()));
    }
    if (table->rows.size() != q.rows || checksum != q.checksum) {
      rec->Fail(StrFormat("%s: %zu rows, checksum %lld; expected %llu, %lld",
                          q.name.c_str(), table->rows.size(),
                          static_cast<long long>(checksum),
                          static_cast<unsigned long long>(q.rows),
                          static_cast<long long>(q.checksum)));
    }
  };

  // Set-up: both carves, RegisterCarve, and the first query of each
  // template.
  for (int k = 0; k < kSetupRepeats; ++k) {
    inv.reset();
    Stopwatch setup;
    const size_t root = rec->OpenOp("setup", opt.trace);
    inv = std::make_unique<Investigation>();
    Status status = [&]() -> Status {
      {
        Span span(rec, "core.carve_disk", root);
        DBFA_ASSIGN_OR_RETURN(
            inv->disk, ParallelCarver(config, disk_options).Carve(in.disk));
      }
      {
        Span span(rec, "core.carve_ram", root);
        DBFA_ASSIGN_OR_RETURN(inv->ram,
                              Carver(config, ram_options).Carve(in.ram));
      }
      Span span(rec, "metaquery.register", root);
      inv->session = std::make_unique<MetaQuerySession>(query_options);
      DBFA_RETURN_IF_ERROR(inv->session->RegisterCarve(inv->disk, "CarvDisk"));
      return inv->session->RegisterCarve(inv->ram, "CarvRAM");
    }();
    rec->Close(root);
    DBFA_RETURN_IF_ERROR(status);
    for (const MetaQuery& q : in.setup_queries) run_query(q, false, false);
    rec->Sample("setup_s", setup.Seconds());
    rec->Sample("core.pages_carved",
                static_cast<double>(inv->disk.pages.size()));
    rec->Sample("core.records_carved",
                static_cast<double>(inv->disk.records.size()));
  }

  Stopwatch run;
  for (size_t k = 0; k == 0 || run.Seconds() < opt.seconds; ++k) {
    run_query(in.queries[k % in.queries.size()], opt.trace && k % 2 == 1,
              /*timed=*/true);
  }
  return Status::Ok();
}

}  // namespace perfbench
