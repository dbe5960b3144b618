#include "generate.h"

#include <algorithm>
#include <map>
#include <memory>
#include <thread>
#include <utility>

#include "common/rng.h"
#include "common/strings.h"
#include "core/carver.h"
#include "core/page_builder.h"
#include "detective/dbdetective.h"
#include "engine/database.h"
#include "sql/parser.h"
#include "sql/statement.h"
#include "storage/disk_image.h"
#include "workload/fleet.h"
#include "workload/synthetic.h"

namespace perfbench {

using namespace dbfa;

namespace {

constexpr const char* kCities[] = {
    "Austin",  "Boston", "Chicago", "Dallas",  "Denver",  "Detroit",
    "Houston", "Miami",  "Newark",  "Oakland", "Orlando", "Phoenix",
    "Reno",    "Salem",  "Tampa",   "Tulsa"};

/// Rows of the bulk tables carry fixed-width strings, so every data page of
/// a table built by ExternalPageBuilder holds the same number of rows.
TableSchema LedgerSchema(uint32_t memo_len) {
  TableSchema schema;
  schema.name = "Ledger";
  schema.columns = {{"Id", ColumnType::kInt, 0, false},
                    {"Owner", ColumnType::kVarchar, 24, true},
                    {"City", ColumnType::kVarchar, 16, true},
                    {"Balance", ColumnType::kDouble, 0, true},
                    {"Memo", ColumnType::kVarchar, memo_len, true}};
  // No primary key: attaching builds no index, and logged DML scans.
  return schema;
}

Record LedgerRow(int64_t id, size_t memo_len, Rng* rng) {
  // Balance keeps <= 6 significant digits so the logged SQL literal (%.6g)
  // parses back to the stored double.
  return {Value::Int(id),
          Value::Str(StrFormat("owner-%08lld", static_cast<long long>(id))),
          Value::Str(kCities[rng->Uniform(0, 15)]),
          Value::Real(static_cast<double>(rng->Uniform(0, 9999)) + 0.25),
          Value::Str(rng->Word(memo_len))};
}

/// Attaches a bulk-built table and records its load in the audit log as the
/// multi-row INSERTs a logged bulk load would have written, so every bulk
/// row is attributable to a logged statement.
Status AttachLogged(Database* db, const TableSchema& schema,
                    const std::vector<Record>& rows, bool log_rows) {
  DBFA_ASSIGN_OR_RETURN(Bytes file, ExternalPageBuilder(BenchConfig())
                                         .BuildTableFile(schema, rows));
  DBFA_RETURN_IF_ERROR(db->AttachExternalTable(schema, file));
  if (!log_rows) return Status::Ok();
  constexpr size_t kBatch = 200;
  for (size_t lo = 0; lo < rows.size(); lo += kBatch) {
    sql::InsertStmt insert;
    insert.table = schema.name;
    insert.rows.assign(rows.begin() + static_cast<ptrdiff_t>(lo),
                       rows.begin() + static_cast<ptrdiff_t>(
                                          std::min(lo + kBatch, rows.size())));
    db->audit_log().Append(db->clock().Now(), insert.ToSql());
  }
  return Status::Ok();
}

/// Disk image: sector-aligned random garbage, the database file, then text
/// garbage up to `total` bytes. The garbage depends only on `garbage_seed`,
/// so captures of one series share identical framing.
Bytes Frame(const Bytes& file, uint64_t garbage_seed, size_t total) {
  Rng rng(garbage_seed);
  DiskImageBuilder builder;
  builder.AppendGarbage(512 * 64, &rng);
  builder.AppendFile("db", file);
  size_t used = builder.bytes().size();
  size_t tail = total > used + 512 * 64 ? (total - used) / 512 * 512 : 512 * 64;
  builder.AppendTextGarbage(tail, &rng);
  return builder.TakeBytes();
}

std::string ModKey(UnattributedModification::Kind kind,
                   const std::string& table, const Record& values) {
  UnattributedModification mod;
  mod.kind = kind;
  mod.table = table;
  mod.values = values;
  return mod.Key();
}

/// The live record of `table` whose first column equals `id`.
Result<Record> FindById(Database* db, const std::string& table, int64_t id) {
  Record found;
  DBFA_RETURN_IF_ERROR(db->heap(table)->Scan([&](RowPointer, const Record& r) {
    if (r[0].as_int() == id) found = r;
    return Status::Ok();
  }));
  if (found.empty()) {
    return Status::NotFound(StrFormat("no live row %lld in %s",
                                      static_cast<long long>(id),
                                      table.c_str()));
  }
  return found;
}

/// Deletes one row with the audit log off (the Section III-A attack) and
/// returns the finding key DBDetective must report for it.
Result<std::string> UnloggedDelete(Database* db, const std::string& table,
                                   int64_t id) {
  DBFA_ASSIGN_OR_RETURN(Record victim, FindById(db, table, id));
  DBFA_ASSIGN_OR_RETURN(
      sql::ExprPtr where,
      sql::ParseExpression(StrFormat("Id = %lld", static_cast<long long>(id))));
  db->audit_log().SetEnabled(false);
  Result<int64_t> deleted = db->Delete(table, std::move(where));
  db->audit_log().SetEnabled(true);
  if (!deleted.ok()) return deleted.status();
  if (*deleted != 1) return Status::Internal("attack deleted no row");
  return ModKey(UnattributedModification::Kind::kDelete, table, victim);
}

Status Exec(Database* db, const std::string& sql) {
  return db->ExecuteSql(sql).status();
}

// ---- investigate -----------------------------------------------------------

constexpr int kInvestigateRows = 16000;
constexpr uint32_t kInvestigateMemo = 96;
constexpr size_t kInvestigateImageBytes = size_t{16} << 20;

}  // namespace

Status GenerateInvestigate(uint64_t seed, InvestigateInputs* out) {
  Rng rng(seed);
  DatabaseOptions options;
  options.buffer_pool_pages = 256;
  DBFA_ASSIGN_OR_RETURN(std::unique_ptr<Database> db, Database::Open(options));

  TableSchema ledger = LedgerSchema(kInvestigateMemo);
  std::vector<Record> rows;
  rows.reserve(kInvestigateRows);
  for (int64_t id = 1; id <= kInvestigateRows; ++id) {
    rows.push_back(LedgerRow(id, kInvestigateMemo, &rng));
  }
  DBFA_RETURN_IF_ERROR(AttachLogged(db.get(), ledger, rows, true));

  // A fully logged OLTP history on a second table.
  SyntheticWorkload accounts(db.get(), "Accounts", seed ^ 0xACC0);
  DBFA_RETURN_IF_ERROR(accounts.Setup(200));
  DBFA_RETURN_IF_ERROR(accounts.Run(300, OpMix{}, /*logged=*/true));

  // Logged maintenance on the first 60% of the ledger ids.
  const int64_t history_hi = kInvestigateRows * 6 / 10;
  for (int k = 0; k < 4; ++k) {
    int64_t lo = rng.Uniform(1, history_hi - 150);
    DBFA_RETURN_IF_ERROR(Exec(
        db.get(), StrFormat("DELETE FROM Ledger WHERE Id BETWEEN %lld AND %lld",
                            static_cast<long long>(lo),
                            static_cast<long long>(lo + 149))));
  }
  for (int k = 0; k < 2; ++k) {
    int64_t lo = rng.Uniform(1, history_hi - 100);
    DBFA_RETURN_IF_ERROR(Exec(
        db.get(),
        StrFormat("UPDATE Ledger SET Memo = 'reconciled-%d' WHERE Id BETWEEN "
                  "%lld AND %lld",
                  k, static_cast<long long>(lo),
                  static_cast<long long>(lo + 99))));
  }

  // The attack: unlogged deletes in the last 20% of ids (no logged
  // predicate reaches them) and unlogged inserts of fresh ids.
  std::vector<int64_t> victims;
  while (victims.size() < 6) {
    int64_t id = rng.Uniform(kInvestigateRows * 8 / 10, kInvestigateRows);
    if (std::find(victims.begin(), victims.end(), id) == victims.end()) {
      victims.push_back(id);
    }
  }
  for (int64_t id : victims) {
    DBFA_ASSIGN_OR_RETURN(std::string key,
                          UnloggedDelete(db.get(), "Ledger", id));
    out->expected.push_back(std::move(key));
  }
  db->audit_log().SetEnabled(false);
  for (int k = 0; k < 2; ++k) {
    Record row = {Value::Int(kInvestigateRows + 1000 + k),
                  Value::Str("mallory"), Value::Str("Nowhere"),
                  Value::Real(1337.25), Value::Str(StrFormat("planted-%d", k))};
    Result<RowPointer> inserted = db->Insert("Ledger", row);
    if (!inserted.ok()) {
      db->audit_log().SetEnabled(true);
      return inserted.status();
    }
    out->expected.push_back(
        ModKey(UnattributedModification::Kind::kInsert, "Ledger", row));
  }
  db->audit_log().SetEnabled(true);
  std::sort(out->expected.begin(), out->expected.end());

  DBFA_ASSIGN_OR_RETURN(Bytes file, db->SnapshotDisk());
  out->disk = Frame(file, seed ^ 0xF4A3E, kInvestigateImageBytes);
  out->ram = db->SnapshotRam();
  out->log = db->audit_log().entries();
  return Status::Ok();
}

// ---- snapshot_series -------------------------------------------------------

namespace {

constexpr int kSnapshotRows = 24000;
constexpr uint32_t kSnapshotMemo = 200;
/// Capture 0 plus 20 changes: every fifth change is a bulk one.
constexpr int kSnapshotCaptures = 21;

/// [min id, max id] of the ledger rows on each data page, in page order.
Result<std::vector<std::pair<int64_t, int64_t>>> PageIdRanges(
    const Bytes& image) {
  DBFA_ASSIGN_OR_RETURN(CarveResult carve, Carver(BenchConfig()).Carve(image));
  uint32_t ledger = carve.ObjectIdByName("Ledger");
  std::map<uint32_t, std::pair<int64_t, int64_t>> by_page;
  for (const CarvedRecord& r : carve.records) {
    if (r.object_id != ledger || r.values.empty()) continue;
    int64_t id = r.values[0].as_int();
    auto [it, fresh] = by_page.try_emplace(r.page_id, id, id);
    if (!fresh) {
      it->second.first = std::min(it->second.first, id);
      it->second.second = std::max(it->second.second, id);
    }
  }
  std::vector<std::pair<int64_t, int64_t>> ranges;
  for (const auto& [page, range] : by_page) ranges.push_back(range);
  if (ranges.size() < 100) return Status::Internal("ledger too small");
  return ranges;
}

}  // namespace

Status GenerateSnapshotSeries(uint64_t seed, SnapshotInputs* out) {
  Rng rng(seed);
  DBFA_ASSIGN_OR_RETURN(std::unique_ptr<Database> db,
                        Database::Open(DatabaseOptions{}));
  std::vector<Record> rows;
  rows.reserve(kSnapshotRows);
  for (int64_t id = 1; id <= kSnapshotRows; ++id) {
    rows.push_back(LedgerRow(id, kSnapshotMemo, &rng));
  }
  DBFA_RETURN_IF_ERROR(
      AttachLogged(db.get(), LedgerSchema(kSnapshotMemo), rows, true));
  rows.clear();

  const uint64_t garbage = seed ^ 0x5A4B;
  auto capture = [&](bool bulk, std::vector<std::string> expected) -> Status {
    DBFA_ASSIGN_OR_RETURN(Bytes file, db->SnapshotDisk());
    out->captures.push_back(Frame(file, garbage, 0));
    out->log_len.push_back(db->audit_log().entries().size());
    out->bulk.push_back(bulk ? 1 : 0);
    std::sort(expected.begin(), expected.end());
    out->expected.push_back(std::move(expected));
    return Status::Ok();
  };
  DBFA_RETURN_IF_ERROR(capture(false, {}));

  // Page layout of the bulk table: bulk changes delete whole 18% regions
  // [0, 72%), localized changes update 1% runs inside [72%, 95%), and
  // unlogged deletes hit single rows in [95%, last page).
  DBFA_ASSIGN_OR_RETURN(auto pages, PageIdRanges(out->captures[0]));
  const size_t p = pages.size();
  const size_t run = std::max<size_t>(1, p / 100);
  const size_t hot_lo = p * 72 / 100;
  const size_t hot_hi = p * 95 / 100;
  const size_t slot = (hot_hi - hot_lo) / 16;
  if (slot < run) return Status::Internal("hot region too small");
  auto rows_of = [&](size_t first, size_t last) {  // pages [first, last)
    return StrFormat("Id BETWEEN %lld AND %lld",
                     static_cast<long long>(pages[first].first),
                     static_cast<long long>(pages[last - 1].second));
  };

  int bulk_done = 0;
  int localized_done = 0;
  int attacks_done = 0;
  for (int i = 1; i < kSnapshotCaptures; ++i) {
    bool bulk = i % 5 == 0;
    if (bulk) {
      size_t first = p * 18 * static_cast<size_t>(bulk_done) / 100;
      size_t last = p * 18 * static_cast<size_t>(bulk_done + 1) / 100;
      ++bulk_done;
      DBFA_RETURN_IF_ERROR(Exec(
          db.get(), "DELETE FROM Ledger WHERE " + rows_of(first, last)));
    } else {
      size_t first = hot_lo + slot * static_cast<size_t>(localized_done) +
                     static_cast<size_t>(rng.Uniform(
                         0, static_cast<int64_t>(slot - run)));
      ++localized_done;
      DBFA_RETURN_IF_ERROR(Exec(
          db.get(), StrFormat("UPDATE Ledger SET Memo = '%s' WHERE %s",
                              rng.Word(kSnapshotMemo).c_str(),
                              rows_of(first, first + run).c_str())));
    }
    std::vector<std::string> expected;
    if (i % 4 == 2) {
      // One victim page per attack, never the last (tail) page.
      size_t page = hot_hi + static_cast<size_t>(attacks_done) * 2;
      ++attacks_done;
      if (page + 1 >= p) return Status::Internal("victim band too small");
      int64_t id = rng.Uniform(pages[page].first, pages[page].second);
      DBFA_ASSIGN_OR_RETURN(std::string key,
                            UnloggedDelete(db.get(), "Ledger", id));
      expected.push_back(std::move(key));
    }
    DBFA_RETURN_IF_ERROR(capture(bulk, std::move(expected)));
  }
  out->log = db->audit_log().entries();
  return Status::Ok();
}

// ---- serve_fleet -----------------------------------------------------------

namespace {

constexpr size_t kServeInstances = 128;
/// 1 cold + 32 warm captures per instance: the phase-B daemon's cold set-up
/// captures stay 3% of its latency samples, clear of its p95.
constexpr uint64_t kServeTicks = 33;

}  // namespace

Status GenerateServeFleet(uint64_t seed, ServeInputs* out) {
  // The fleet is built as independent sub-fleets on separate threads (every
  // instance owns its database, so nothing is shared); instance j of
  // sub-fleet f is instance f * kSubFleet + j.
  constexpr size_t kSubFleets = 4;
  constexpr size_t kSubFleet = kServeInstances / kSubFleets;
  struct SubFleet {
    Status status = Status::Ok();
    std::vector<Bytes> captures;  // diffs, tick-major within the sub-fleet
    std::vector<uint64_t> log_len, attacks;
    std::vector<std::vector<AuditEntry>> logs;
  };
  std::vector<SubFleet> parts(kSubFleets);
  auto build = [&](size_t f) {
    SubFleet& part = parts[f];
    part.status = [&]() -> Status {
      FleetOptions options;
      options.instances = kSubFleet;
      options.seed_rows = 360;
      options.ops_per_tick = 3;
      options.attack_rate = 0.02;
      options.seed = seed * kSubFleets + f;
      DBFA_ASSIGN_OR_RETURN(std::unique_ptr<FleetSimulator> fleet,
                            FleetSimulator::Make(options));
      std::vector<Bytes> prev(kSubFleet);
      for (uint64_t t = 0; t < kServeTicks; ++t) {
        for (size_t i = 0; i < kSubFleet; ++i) {
          DBFA_ASSIGN_OR_RETURN(Bytes image, fleet->Tick(i));
          part.captures.push_back(DiffImage(prev[i], image));
          prev[i] = std::move(image);
          part.log_len.push_back(fleet->Log(i).entries().size());
          part.attacks.push_back(fleet->Attacks(i));
        }
      }
      for (size_t i = 0; i < kSubFleet; ++i) {
        part.logs.push_back(fleet->Log(i).entries());
      }
      return Status::Ok();
    }();
  };
  std::vector<std::thread> threads;
  for (size_t f = 0; f < kSubFleets; ++f) threads.emplace_back(build, f);
  for (std::thread& t : threads) t.join();

  out->instances = kServeInstances;
  out->ticks = kServeTicks;
  for (const SubFleet& part : parts) DBFA_RETURN_IF_ERROR(part.status);
  for (uint64_t t = 0; t < kServeTicks; ++t) {
    for (SubFleet& part : parts) {
      for (size_t i = 0; i < kSubFleet; ++i) {
        size_t k = t * kSubFleet + i;
        out->captures.push_back(std::move(part.captures[k]));
        out->log_len.push_back(part.log_len[k]);
        out->attacks.push_back(part.attacks[k]);
      }
    }
  }
  for (SubFleet& part : parts) {
    for (auto& log : part.logs) out->logs.push_back(std::move(log));
  }
  return Status::Ok();
}

// ---- metaquery -------------------------------------------------------------

namespace {

constexpr int64_t kProducts = 100000;
constexpr int64_t kSales = 50000;
constexpr int64_t kDeletedSpan = 15000;
constexpr int64_t kUpdatedSpan = 2000;
constexpr int kCategories = 16;
constexpr int kRegions = 8;
constexpr size_t kQueries = 4000;

/// The carved data as the generator built it; every expected answer below
/// is derived from these arrays, never from the system under test.
struct Catalogue {
  std::vector<int> category;        // by pid
  std::vector<int64_t> cents;       // price * 100, by pid
  int64_t deleted_lo = 0, deleted_hi = 0;
  int64_t updated_lo = 0, updated_hi = 0;
  /// agg[category][region] = {sales, summed quantity} over active products.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> agg;
  std::vector<int64_t> by_price;    // active pids, price desc then pid asc

  bool Deleted(int64_t pid) const {
    return pid >= deleted_lo && pid <= deleted_hi;
  }
};

std::string ProductName(int64_t pid) {
  return StrFormat("prod%07lld", static_cast<long long>(pid));
}

MetaQuery QDeleted(const Catalogue& c, Rng* rng) {
  constexpr int64_t kWidth = 4000;
  int64_t a =
      rng->Uniform(c.deleted_lo - kWidth / 2, c.deleted_hi - kWidth / 2);
  int64_t b = a + kWidth - 1;
  MetaQuery q{"q_deleted",
              StrFormat("SELECT PID, Name, Price FROM CarvDiskProduct WHERE "
                        "RowStatus = 'DELETED' AND PID BETWEEN %lld AND %lld",
                        static_cast<long long>(a), static_cast<long long>(b))};
  for (int64_t pid = std::max(a, c.deleted_lo);
       pid <= std::min(b, c.deleted_hi); ++pid) {
    ++q.rows;
    q.checksum += pid + c.cents[pid];
  }
  return q;
}

MetaQuery QPoint(const Catalogue& c, Rng* rng) {
  int64_t pid = rng->Uniform(1, kProducts);
  std::string where =
      rng->Bernoulli(0.5)
          ? StrFormat("PID = %lld", static_cast<long long>(pid))
          : StrFormat("Name = '%s'", ProductName(pid).c_str());
  return {"q_point", "SELECT PID, Price FROM CarvDiskProduct WHERE " + where,
          1, pid + c.cents[pid]};
}

MetaQuery QLike(Rng* rng) {
  int64_t prefix = rng->Uniform(1, kProducts / 100 - 1);
  MetaQuery q{"q_like",
              StrFormat("SELECT PID, Category FROM CarvDiskProduct WHERE Name "
                        "LIKE 'prod%05lld%%'",
                        static_cast<long long>(prefix))};
  for (int64_t pid = prefix * 100; pid < prefix * 100 + 100; ++pid) {
    ++q.rows;
    q.checksum += pid;
  }
  return q;
}

MetaQuery QFreshUpdates(const Catalogue& c, Rng* rng) {
  constexpr int64_t kWidth = 1000;
  int64_t a =
      rng->Uniform(c.updated_lo - kWidth / 2, c.updated_hi - kWidth / 2);
  int64_t b = a + kWidth - 1;
  MetaQuery q{
      "q_fresh_updates",
      StrFormat("SELECT M.PID, M.Price, D.Price AS OldPrice FROM "
                "CarvRAMProduct AS M JOIN CarvDiskProduct AS D ON M.PID = "
                "D.PID WHERE M.Price <> D.Price AND M.RowStatus = 'ACTIVE' "
                "AND D.RowStatus = 'ACTIVE' AND M.PID BETWEEN %lld AND %lld",
                static_cast<long long>(a), static_cast<long long>(b))};
  for (int64_t pid = std::max(a, c.updated_lo);
       pid <= std::min(b, c.updated_hi); ++pid) {
    ++q.rows;
    q.checksum += pid + 150 + c.cents[pid];  // fresh price is 1.50
  }
  return q;
}

MetaQuery QJoinAgg(const Catalogue& c, Rng* rng) {
  int category = static_cast<int>(rng->Uniform(0, kCategories - 1));
  MetaQuery q{"q_join_agg",
              StrFormat("SELECT S.Region, COUNT(*) AS n, SUM(S.Qty) AS qty "
                        "FROM CarvDiskSale AS S JOIN CarvDiskProduct AS P ON "
                        "S.PID = P.PID WHERE P.RowStatus = 'ACTIVE' AND "
                        "P.Category = 'cat%02d' GROUP BY S.Region ORDER BY "
                        "S.Region",
                        category)};
  for (const auto& [n, qty] : c.agg[static_cast<size_t>(category)]) {
    if (n == 0) continue;
    ++q.rows;
    q.checksum += n + qty;
  }
  return q;
}

MetaQuery QTopK(const Catalogue& c, Rng* rng) {
  int64_t k = rng->Uniform(5, 50);
  MetaQuery q{"q_topk",
              StrFormat("SELECT PID, Price FROM CarvDiskProduct WHERE "
                        "RowStatus = 'ACTIVE' ORDER BY Price DESC, PID LIMIT "
                        "%lld",
                        static_cast<long long>(k))};
  for (int64_t r = 0; r < k; ++r) {
    int64_t pid = c.by_price[static_cast<size_t>(r)];
    ++q.rows;
    q.checksum += pid + c.cents[pid];
  }
  return q;
}

MetaQuery DrawQuery(int kind, const Catalogue& c, Rng* rng) {
  switch (kind) {
    case 0:
      return QDeleted(c, rng);
    case 1:
      return QPoint(c, rng);
    case 2:
      return QLike(rng);
    case 3:
      return QFreshUpdates(c, rng);
    case 4:
      return QJoinAgg(c, rng);
    default:
      return QTopK(c, rng);
  }
}

}  // namespace

Status GenerateMetaquery(uint64_t seed, MetaqueryInputs* out) {
  Rng rng(seed);
  DatabaseOptions options;
  // The RAM snapshot must hold every product page, so the fresh versions of
  // all updated rows are in it.
  options.buffer_pool_pages = 1024;
  DBFA_ASSIGN_OR_RETURN(std::unique_ptr<Database> db, Database::Open(options));

  Catalogue c;
  c.category.assign(kProducts + 1, 0);
  c.cents.assign(kProducts + 1, 0);
  TableSchema product;
  product.name = "Product";
  product.columns = {{"PID", ColumnType::kInt, 0, false},
                     {"Name", ColumnType::kVarchar, 24, true},
                     {"Category", ColumnType::kVarchar, 16, true},
                     {"Price", ColumnType::kDouble, 0, true}};
  std::vector<Record> rows;
  rows.reserve(kProducts);
  for (int64_t pid = 1; pid <= kProducts; ++pid) {
    int category = static_cast<int>(rng.Uniform(0, kCategories - 1));
    int64_t dollars = rng.Uniform(2, 999);  // never the fresh price 1.50
    c.category[pid] = category;
    c.cents[pid] = dollars * 100 + 99;
    rows.push_back({Value::Int(pid), Value::Str(ProductName(pid)),
                    Value::Str(StrFormat("cat%02d", category)),
                    Value::Real(static_cast<double>(dollars) + 0.99)});
  }
  DBFA_RETURN_IF_ERROR(AttachLogged(db.get(), product, rows, false));

  TableSchema sale;
  sale.name = "Sale";
  sale.columns = {{"SID", ColumnType::kInt, 0, false},
                  {"PID", ColumnType::kInt, 0, true},
                  {"Qty", ColumnType::kInt, 0, true},
                  {"Region", ColumnType::kVarchar, 16, true}};
  std::vector<std::pair<int64_t, std::pair<int, int64_t>>> sales;  // pid,(r,q)
  rows.clear();
  for (int64_t sid = 1; sid <= kSales; ++sid) {
    int64_t pid = rng.Uniform(1, kProducts);
    int64_t qty = rng.Uniform(1, 20);
    int region = static_cast<int>(rng.Uniform(0, kRegions - 1));
    sales.push_back({pid, {region, qty}});
    rows.push_back({Value::Int(sid), Value::Int(pid), Value::Int(qty),
                    Value::Str(StrFormat("region%d", region))});
  }
  DBFA_RETURN_IF_ERROR(AttachLogged(db.get(), sale, rows, false));
  rows.clear();

  // Scenario 1 evidence: a deleted id range, then the disk capture.
  c.deleted_lo = rng.Uniform(kProducts / 10, kProducts / 2);
  c.deleted_hi = c.deleted_lo + kDeletedSpan - 1;
  DBFA_RETURN_IF_ERROR(Exec(
      db.get(), StrFormat("DELETE FROM Product WHERE PID BETWEEN %lld AND %lld",
                          static_cast<long long>(c.deleted_lo),
                          static_cast<long long>(c.deleted_hi))));
  DBFA_ASSIGN_OR_RETURN(Bytes file, db->SnapshotDisk());
  out->disk = Frame(file, seed ^ 0x3E7A, 0);

  // Scenario 2 evidence: fresh prices only the RAM snapshot holds.
  c.updated_lo = rng.Uniform(c.deleted_hi + 1000, kProducts - kUpdatedSpan);
  c.updated_hi = c.updated_lo + kUpdatedSpan - 1;
  DBFA_RETURN_IF_ERROR(Exec(
      db.get(),
      StrFormat("UPDATE Product SET Price = 1.5 WHERE PID BETWEEN %lld AND "
                "%lld",
                static_cast<long long>(c.updated_lo),
                static_cast<long long>(c.updated_hi))));
  // A full scan (no row qualifies) pulls every product page into the pool.
  DBFA_RETURN_IF_ERROR(
      Exec(db.get(), "SELECT PID FROM Product WHERE Price < 0"));
  out->ram = db->SnapshotRam();
  db.reset();

  c.agg.assign(kCategories,
               std::vector<std::pair<int64_t, int64_t>>(kRegions, {0, 0}));
  for (const auto& [pid, rq] : sales) {
    if (c.Deleted(pid)) continue;
    auto& cell = c.agg[static_cast<size_t>(c.category[pid])]
                      [static_cast<size_t>(rq.first)];
    ++cell.first;
    cell.second += rq.second;
  }
  for (int64_t pid = 1; pid <= kProducts; ++pid) {
    if (!c.Deleted(pid)) c.by_price.push_back(pid);
  }
  std::sort(c.by_price.begin(), c.by_price.end(), [&](int64_t a, int64_t b) {
    if (c.cents[a] != c.cents[b]) return c.cents[a] > c.cents[b];
    return a < b;
  });

  Rng draw(seed ^ 0x0DDBA11);
  for (int kind = 0; kind < 6; ++kind) {
    out->setup_queries.push_back(DrawQuery(kind, c, &draw));
  }
  // Each block of nine ops runs the three scan templates once and the join
  // and sort templates twice, in a seeded order. A fixed mix keeps
  // op_p50_ms independent of the seed, and weighting it away from 50/50
  // keeps the median inside one cost cluster instead of on the gap between
  // the ~1x scans and the ~3x joins.
  int order[9] = {0, 1, 2, 3, 3, 4, 4, 5, 5};
  while (out->queries.size() < kQueries) {
    for (int k = 8; k > 0; --k) std::swap(order[k], order[draw.Uniform(0, k)]);
    for (int kind : order) out->queries.push_back(DrawQuery(kind, c, &draw));
  }
  return Status::Ok();
}

}  // namespace perfbench
