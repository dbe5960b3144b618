// dbfa_reenact — transaction reenactment: replay the audit log on a
// reference engine and compare the claimed state against carved storage
// (docs/reenactment.md).
//
//   dbfa_reenact replay       <config.conf> <audit.log> [--upto=SEQ]
//                             [--skip=SEQ]... [--fingerprint]
//   dbfa_reenact provenance   <config.conf> <audit.log> <image>
//   dbfa_reenact recover      <config.conf> <audit.log> <image>
//                             [--script-out=FILE] [--verify]
//   dbfa_reenact validate-log <config.conf> <audit.log> <image>
//   dbfa_reenact simulate     <scenario> <out-dir>
//
// replay materializes the state the log claims (optionally a prefix, or a
// what-if history without the skipped entries). provenance classifies
// every logged transaction against carved evidence. recover emits the
// surgical undo script for unlogged tampering; --verify replays it on the
// materialized carved state and byte-compares fingerprints. validate-log
// runs the Section III-C backdating detectors. simulate writes a synthetic
// scenario (config.conf, audit.log, storage.img) for the other
// subcommands: "clean", "tamper" (unlogged byte-level edits), "backdate"
// (clock set back + log re-sorted to hide the inversions).
//
// Exit codes: 0 consistent/clean, 1 operational error, 2 usage,
// 3 inconsistency detected (backdating, contradicted provenance, or
// corrupted rows).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/file_io.h"
#include "common/strings.h"
#include "core/carver.h"
#include "core/config_io.h"
#include "engine/audit_log.h"
#include "reenact/log_validator.h"
#include "reenact/provenance.h"
#include "reenact/recovery.h"
#include "reenact/reenactor.h"
#include "storage/dialects.h"
#include "storage/disk_image.h"
#include "workload/synthetic.h"

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: dbfa_reenact replay       <config.conf> <audit.log>\n"
      "                                 [--upto=SEQ] [--skip=SEQ]... "
      "[--fingerprint]\n"
      "       dbfa_reenact provenance   <config.conf> <audit.log> <image>\n"
      "       dbfa_reenact recover      <config.conf> <audit.log> <image>\n"
      "                                 [--script-out=FILE] [--verify]\n"
      "       dbfa_reenact validate-log <config.conf> <audit.log> <image>\n"
      "       dbfa_reenact simulate     <clean|tamper|backdate> <out-dir>\n");
  return 2;
}

struct LoadedCase {
  dbfa::CarverConfig config;
  dbfa::AuditLog log;
};

/// Loads the <config.conf> <audit.log> pair every subcommand starts with.
int LoadCase(const char* config_path, const char* log_path, LoadedCase* out) {
  auto config = dbfa::LoadConfig(config_path);
  if (!config.ok()) {
    std::fprintf(stderr, "config: %s\n", config.status().ToString().c_str());
    return 1;
  }
  auto log = dbfa::AuditLog::LoadFrom(log_path);
  if (!log.ok()) {
    std::fprintf(stderr, "log: %s\n", log.status().ToString().c_str());
    return 1;
  }
  out->config = *std::move(config);
  out->log = *std::move(log);
  return 0;
}

dbfa::Result<dbfa::CarveResult> CarveImage(const dbfa::CarverConfig& config,
                                           const char* image_path) {
  DBFA_ASSIGN_OR_RETURN(dbfa::Bytes image, dbfa::LoadImage(image_path));
  dbfa::Carver carver(config);
  return carver.Carve(image);
}

// ---- simulate ---------------------------------------------------------------

/// Builds one synthetic instance, applies the scenario's attack, and writes
/// config.conf / audit.log / storage.img under `dir`. The scenarios mirror
/// the E2E tests, so CI can assert the documented exit codes end to end.
int Simulate(const std::string& scenario, const std::string& dir) {
  using namespace dbfa;
  // oracle_like stores row ids, which the backdating detectors need; the
  // other scenarios work under any dialect, so one choice serves all.
  DatabaseOptions options;
  options.dialect = "oracle_like";
  auto db = Database::Open(options);
  if (!db.ok()) {
    std::fprintf(stderr, "open: %s\n", db.status().ToString().c_str());
    return 1;
  }
  SyntheticWorkload workload(db->get(), "Accounts", /*seed=*/1234);
  Status status = workload.Setup(/*rows=*/40);
  if (status.ok()) status = workload.Run(30, OpMix{}, /*logged=*/true);
  if (!status.ok()) {
    std::fprintf(stderr, "workload: %s\n", status.ToString().c_str());
    return 1;
  }

  std::string log_text;
  if (scenario == "clean") {
    log_text = (*db)->audit_log().ToText();
  } else if (scenario == "tamper") {
    // Unlogged byte-level edits, then more legitimate logged traffic that
    // recovery must preserve.
    RowPointer victim{};
    status = (*db)->heap("Accounts")->Scan([&](RowPointer ptr, const Record&) {
      victim = ptr;
      return Status::Ok();
    });
    if (status.ok()) {
      // Balance is a DOUBLE: any replacement keeps the encoded length.
      status = TamperOverwriteField(db->get(), "Accounts", victim, "Balance",
                                    Value::Real(9999.25));
    }
    if (status.ok()) {
      status = TamperInsertRecord(
          db->get(), "Accounts",
          {Value::Int(990001), Value::Str("Ghost"), Value::Str("Nowhere"),
           Value::Real(0.5)});
    }
    if (status.ok()) status = workload.Run(10, OpMix{}, /*logged=*/true);
    if (!status.ok()) {
      std::fprintf(stderr, "tamper: %s\n", status.ToString().c_str());
      return 1;
    }
    log_text = (*db)->audit_log().ToText();
  } else if (scenario == "backdate") {
    // Set the clock back, insert, restore — then rewrite the log sorted by
    // timestamp with renumbered seqs so no inversion remains. Only the
    // storage row-id order still witnesses the true order.
    int64_t now = (*db)->clock().Peek();
    (*db)->clock().Set(now - 90'000);
    for (int i = 0; i < 3 && status.ok(); ++i) {
      status = workload.RunStatement(
          StrFormat("INSERT INTO Accounts VALUES (%d, 'Evil%d', 'City', 1.0)",
                    990100 + i, i),
          /*logged=*/true);
    }
    (*db)->clock().Set(now);
    if (!status.ok()) {
      std::fprintf(stderr, "backdate: %s\n", status.ToString().c_str());
      return 1;
    }
    std::vector<AuditEntry> entries = (*db)->audit_log().entries();
    std::stable_sort(entries.begin(), entries.end(),
                     [](const AuditEntry& a, const AuditEntry& b) {
                       return a.timestamp < b.timestamp;
                     });
    for (size_t i = 0; i < entries.size(); ++i) {
      log_text += StrFormat("%zu|%lld|", i + 1,
                            static_cast<long long>(entries[i].timestamp));
      log_text += entries[i].sql;
      log_text += "\n";
    }
  } else {
    return Usage();
  }

  auto image = (*db)->SnapshotDisk();
  if (!image.ok()) {
    std::fprintf(stderr, "snapshot: %s\n", image.status().ToString().c_str());
    return 1;
  }
  CarverConfig config;
  config.params = GetDialect(options.dialect).value();

  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "mkdir %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  Status saved = SaveConfig(dir + "/config.conf", config);
  if (saved.ok()) saved = WriteFile(dir + "/audit.log", log_text);
  if (saved.ok()) saved = SaveImage(dir + "/storage.img", *image);
  if (!saved.ok()) {
    std::fprintf(stderr, "%s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf(
      "simulated '%s' scenario in %s (%zu logged statements, %zu image "
      "bytes)\n",
      scenario.c_str(), dir.c_str(), (*db)->audit_log().entries().size(),
      image->size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dbfa;
  if (argc < 3) return Usage();
  std::string command = argv[1];

  if (command == "simulate") {
    if (argc != 4) return Usage();
    return Simulate(argv[2], argv[3]);
  }

  if (argc < 4) return Usage();
  LoadedCase input;
  if (int rc = LoadCase(argv[2], argv[3], &input); rc != 0) return rc;
  Reenactor reenactor(input.config);

  if (command == "replay") {
    ReplayOptions options;
    bool fingerprint = false;
    for (int i = 4; i < argc; ++i) {
      std::string arg = argv[i];
      uint64_t v = 0;
      if (arg.rfind("--upto=", 0) == 0) {
        if (!ParseU64(arg.c_str() + 7, &v)) return Usage();
        options.upto_seq = v;
      } else if (arg.rfind("--skip=", 0) == 0) {
        if (!ParseU64(arg.c_str() + 7, &v)) return Usage();
        options.skip_seqs.insert(v);
      } else if (arg == "--fingerprint") {
        fingerprint = true;
      } else {
        return Usage();
      }
    }
    auto state = reenactor.Replay(input.log, options);
    if (!state.ok()) {
      std::fprintf(stderr, "replay: %s\n", state.status().ToString().c_str());
      return 1;
    }
    for (const StatementOutcome& outcome : state->outcomes) {
      std::printf("%s\n", outcome.ToString().c_str());
    }
    std::printf("replayed %zu statements (%zu applied, %zu failed)\n",
                state->outcomes.size(), state->applied, state->failed);
    if (fingerprint) {
      auto print = state->Fingerprint();
      if (!print.ok()) {
        std::fprintf(stderr, "fingerprint: %s\n",
                     print.status().ToString().c_str());
        return 1;
      }
      std::printf("%s", print->c_str());
    }
    return 0;
  }

  // The remaining subcommands all join the replay against a carved image.
  if (argc < 5) return Usage();
  auto carve = CarveImage(input.config, argv[4]);
  if (!carve.ok()) {
    std::fprintf(stderr, "carve: %s\n", carve.status().ToString().c_str());
    return 1;
  }

  if (command == "provenance") {
    if (argc != 5) return Usage();
    ProvenanceAnalyzer analyzer(reenactor);
    auto report = analyzer.Analyze(input.log, *carve);
    if (!report.ok()) {
      std::fprintf(stderr, "provenance: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    std::printf("%s", report->ToString().c_str());
    return report->Consistent() ? 0 : 3;
  }

  if (command == "recover") {
    std::string script_out;
    bool verify = false;
    for (int i = 5; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--script-out=", 0) == 0) {
        script_out = arg.substr(13);
      } else if (arg == "--verify") {
        verify = true;
      } else {
        return Usage();
      }
    }
    RecoveryPlanner planner(reenactor);
    auto script = planner.Plan(input.log, *carve);
    if (!script.ok()) {
      std::fprintf(stderr, "recover: %s\n",
                   script.status().ToString().c_str());
      return 1;
    }
    std::printf("%s", script->ToString().c_str());
    if (!script_out.empty()) {
      if (Status s = WriteFile(script_out, script->ToSql()); !s.ok()) {
        std::fprintf(stderr, "%s\n", s.ToString().c_str());
        return 1;
      }
      std::printf("recovery script written to %s\n", script_out.c_str());
    }
    if (verify) {
      auto verification = planner.Verify(*script, input.log, *carve);
      if (!verification.ok()) {
        std::fprintf(stderr, "verify: %s\n",
                     verification.status().ToString().c_str());
        return 1;
      }
      std::printf("verification: recovered state %s the claimed replay\n",
                  verification->byte_identical ? "byte-identical to"
                                               : "DIFFERS from");
      if (!verification->byte_identical) return 1;
    }
    return script->Clean() ? 0 : 3;
  }

  if (command == "validate-log") {
    if (argc != 5) return Usage();
    LogValidator validator(reenactor);
    auto report = validator.Validate(input.log, *carve);
    if (!report.ok()) {
      std::fprintf(stderr, "validate-log: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    std::printf("%s", report->ToString().c_str());
    return report->Consistent() ? 0 : 3;
  }

  return Usage();
}
