// dbfa_mkimage — produce a demo storage image (plus matching audit log)
// for exercising dbfa_carve/dbfa_audit without writing code: builds a
// MiniDB of the chosen dialect, runs a seeded workload including deletes,
// updates, a dropped table and two unlogged attack operations.
//
//   dbfa_mkimage <dialect> <out.img> [<out.log>] [--seed=N]
#include <cstdio>
#include <string>

#include "common/strings.h"
#include "engine/database.h"
#include "storage/disk_image.h"
#include "workload/synthetic.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: dbfa_mkimage <dialect> <out.img> [<out.log>] "
               "[--seed=N]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dbfa;
  if (argc < 3) return Usage();
  uint64_t seed = 42;
  std::string log_path;
  for (int i = 3; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--seed=", 0) == 0) {
      if (!ParseU64(arg.c_str() + 7, &seed)) return Usage();
    } else {
      log_path = arg;
    }
  }
  DatabaseOptions options;
  options.dialect = argv[1];
  auto db = Database::Open(options);
  if (!db.ok()) {
    std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
    return 1;
  }
  SyntheticWorkload workload(db->get(), "Accounts", seed);
  if (!workload.Setup(250).ok() ||
      !workload.Run(200, OpMix{}, /*logged=*/true).ok()) {
    std::fprintf(stderr, "workload failed\n");
    return 1;
  }
  // A dropped table with a secret.
  (void)(*db)->ExecuteSql(
      "CREATE TABLE Shadow (k INT, secret VARCHAR(32), PRIMARY KEY (k))");
  (void)(*db)->ExecuteSql(
      "INSERT INTO Shadow VALUES (1, 'the-dropped-secret')");
  (void)(*db)->ExecuteSql("DROP TABLE Shadow");
  // The attack: two unlogged operations.
  (void)workload.RunStatement("DELETE FROM Accounts WHERE Owner = 'Thomas'",
                              /*logged=*/false);
  (void)workload.RunStatement(
      "INSERT INTO Accounts VALUES (99001, 'Mallory', 'Shadow', 1.0)",
      /*logged=*/false);

  auto image = (*db)->SnapshotDisk();
  if (!image.ok()) return 1;
  if (auto s = SaveImage(argv[2], *image); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s (%zu bytes, dialect %s)\n", argv[2], image->size(),
              argv[1]);
  if (!log_path.empty()) {
    if (auto s = (*db)->audit_log().SaveTo(log_path); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s (%zu entries; the 2 attack ops are absent)\n",
                log_path.c_str(), (*db)->audit_log().entries().size());
  }
  return 0;
}
