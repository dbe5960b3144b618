// AuditDaemon: graceful shutdown draining in-flight captures, findings
// equivalence with the one-shot detective over the same capture sequence,
// stats/queue invariants under forced backpressure, zero findings for a
// clean fleet, failed feed/stats writes surfacing as errors, and warm
// captures creating no files. Labeled serve-sanitize: `ctest -L serve`
// runs them in every build and the TSan job's `-L 'sanitize|snapshot'`
// picks them up for race coverage.
#include "serve/audit_daemon.h"

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/strings.h"
#include "core/carver.h"
#include "detective/dbdetective.h"
#include "storage/dialects.h"
#include "storage/value.h"
#include "workload/fleet.h"

namespace dbfa {
namespace {

namespace fs = std::filesystem;

std::string FreshRoot(const std::string& name) {
  fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir.string();
}

FleetOptions SmallFleet(size_t instances, double attack_rate) {
  FleetOptions options;
  options.instances = instances;
  options.seed_rows = 24;
  options.ops_per_tick = 4;
  options.attack_rate = attack_rate;
  options.seed = 99;
  return options;
}

TEST(ServeTest, ShutdownDrainsInFlightCaptures) {
  auto fleet = FleetSimulator::Make(SmallFleet(6, 0.5));
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  ServeOptions serve;
  serve.root = FreshRoot("serve_drain");
  serve.shards = 2;
  serve.queue_capacity = 64;
  auto daemon = AuditDaemon::Start(serve);
  ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();
  for (size_t i = 0; i < (*fleet)->size(); ++i) {
    ASSERT_TRUE((*daemon)
                    ->AddInstance(FleetSimulator::InstanceName(i),
                                  (*fleet)->Config())
                    .ok());
  }
  // Submit two ticks of captures and shut down immediately — no Drain().
  // Every accepted capture must still be processed before Shutdown returns.
  uint64_t accepted = 0;
  for (int tick = 0; tick < 2; ++tick) {
    for (size_t i = 0; i < (*fleet)->size(); ++i) {
      auto image = (*fleet)->Tick(i);
      ASSERT_TRUE(image.ok()) << image.status().ToString();
      Status submitted =
          (*daemon)->SubmitCapture(i, std::move(*image), (*fleet)->Log(i));
      if (submitted.ok()) ++accepted;
    }
  }
  ASSERT_TRUE((*daemon)->Shutdown().ok());
  ServeStats stats = (*daemon)->Stats();
  EXPECT_EQ(stats.captures_completed + stats.captures_failed, accepted);
  EXPECT_EQ(stats.captures_failed, 0u);
  EXPECT_EQ(stats.invariants, "ok");
  // The stats file is written as part of shutdown.
  EXPECT_TRUE(fs::exists(fs::path(serve.root) / AuditDaemon::kStatsFile));
  // Intake is refused after shutdown.
  Status late = (*daemon)->SubmitCapture(0, Bytes{1, 2, 3}, (*fleet)->Log(0));
  EXPECT_EQ(late.code(), StatusCode::kFailedPrecondition);
}

TEST(ServeTest, FindingsMatchOneShotDetectiveOnSameCaptures) {
  // One instance, attacked every tick. The daemon audits incrementally
  // (full detection on capture 1, delta-only re-matching after); the
  // reference below carves every capture from scratch and runs the full
  // Figure-4 match. Their deduplicated finding sets must be identical.
  FleetOptions fleet_options = SmallFleet(1, 1.0);
  auto fleet = FleetSimulator::Make(fleet_options);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  ServeOptions serve;
  serve.root = FreshRoot("serve_equiv");
  serve.shards = 1;
  auto daemon = AuditDaemon::Start(serve);
  ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();
  ASSERT_TRUE((*daemon)
                  ->AddInstance(FleetSimulator::InstanceName(0),
                                (*fleet)->Config())
                  .ok());

  std::set<std::string> expected;
  CarverConfig config = (*fleet)->Config();
  Carver carver(config, CarveOptions{});
  for (int tick = 0; tick < 4; ++tick) {
    auto image = (*fleet)->Tick(0);
    ASSERT_TRUE(image.ok()) << image.status().ToString();
    // Reference: one-shot carve + full detection of this very capture
    // against the log as collected at capture time.
    AuditLog log_at_capture = (*fleet)->Log(0);
    auto carve = carver.Carve(*image);
    ASSERT_TRUE(carve.ok()) << carve.status().ToString();
    DbDetective detective(&*carve, &log_at_capture);
    auto mods = detective.FindUnattributedModifications();
    ASSERT_TRUE(mods.ok()) << mods.status().ToString();
    for (const UnattributedModification& mod : *mods) {
      expected.insert(mod.Key());
    }
    ASSERT_TRUE(
        (*daemon)->SubmitCapture(0, std::move(*image), log_at_capture).ok());
  }
  (*daemon)->Drain();
  ASSERT_TRUE((*daemon)->Shutdown().ok());

  std::set<std::string> actual;
  for (const ServeFinding& finding : (*daemon)->Findings()) {
    EXPECT_EQ(finding.instance, FleetSimulator::InstanceName(0));
    actual.insert(finding.mod.Key());
  }
  EXPECT_EQ(actual, expected);
  EXPECT_GE(actual.size(), 1u) << "attacked every tick, expected findings";
}

TEST(ServeTest, BackpressureRejectsAndKeepsCountersConsistent) {
  auto fleet = FleetSimulator::Make(SmallFleet(8, 0.0));
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  ServeOptions serve;
  serve.root = FreshRoot("serve_backpressure");
  serve.shards = 1;          // one worker...
  serve.queue_capacity = 1;  // ...and a single-slot queue: rejects certain
  auto daemon = AuditDaemon::Start(serve);
  ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();
  for (size_t i = 0; i < (*fleet)->size(); ++i) {
    ASSERT_TRUE((*daemon)
                    ->AddInstance(FleetSimulator::InstanceName(i),
                                  (*fleet)->Config())
                    .ok());
  }
  uint64_t accepted = 0;
  uint64_t rejected = 0;
  for (int tick = 0; tick < 3; ++tick) {
    for (size_t i = 0; i < (*fleet)->size(); ++i) {
      auto image = (*fleet)->Tick(i);
      ASSERT_TRUE(image.ok()) << image.status().ToString();
      Status submitted =
          (*daemon)->SubmitCapture(i, std::move(*image), (*fleet)->Log(i));
      if (submitted.ok()) {
        ++accepted;
      } else {
        ASSERT_EQ(submitted.code(), StatusCode::kUnavailable)
            << submitted.ToString();
        ++rejected;
      }
    }
  }
  (*daemon)->Drain();
  ASSERT_TRUE((*daemon)->Shutdown().ok());
  ServeStats stats = (*daemon)->Stats();
  EXPECT_GT(rejected, 0u) << "a 1-slot queue must have pushed back";
  EXPECT_EQ(stats.captures_submitted, accepted + rejected);
  EXPECT_EQ(stats.captures_rejected, rejected);
  EXPECT_EQ(stats.captures_completed, accepted);
  EXPECT_EQ(stats.MaxQueueHighWater(), 1u);
  EXPECT_EQ(stats.invariants, "ok");
  // Clean fleet: backpressure must only ever drop work, never invent
  // findings.
  EXPECT_EQ(stats.findings, 0u);
}

TEST(ServeTest, CleanFleetProducesNoFindings) {
  auto fleet = FleetSimulator::Make(SmallFleet(4, 0.0));
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  ServeOptions serve;
  serve.root = FreshRoot("serve_clean");
  serve.shards = 2;
  auto daemon = AuditDaemon::Start(serve);
  ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();
  for (size_t i = 0; i < (*fleet)->size(); ++i) {
    ASSERT_TRUE((*daemon)
                    ->AddInstance(FleetSimulator::InstanceName(i),
                                  (*fleet)->Config())
                    .ok());
  }
  for (int tick = 0; tick < 3; ++tick) {
    for (size_t i = 0; i < (*fleet)->size(); ++i) {
      auto image = (*fleet)->Tick(i);
      ASSERT_TRUE(image.ok()) << image.status().ToString();
      ASSERT_TRUE((*daemon)
                      ->SubmitCapture(i, std::move(*image), (*fleet)->Log(i))
                      .ok());
    }
  }
  (*daemon)->Drain();
  ASSERT_TRUE((*daemon)->Shutdown().ok());
  ServeStats stats = (*daemon)->Stats();
  EXPECT_EQ(stats.findings, 0u);
  EXPECT_TRUE((*daemon)->Findings().empty());
  EXPECT_EQ(stats.captures_failed, 0u);
  EXPECT_EQ(stats.snapshots, 12u);  // 4 instances x 3 ticks, none rejected
  // Warm re-ingests of mostly-unchanged instances must hit the dedup path.
  EXPECT_GT(stats.pages_reused, 0u);
}

TEST(ServeTest, WarmCapturesCreateNoFiles) {
  // A repository is one file, made by the instance's first capture; a
  // warm capture only appends to it. Every path under the root keeps
  // its inode across the warm ticks, so nothing is created or replaced.
  auto fleet = FleetSimulator::Make(SmallFleet(3, 0.5));
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  ServeOptions serve;
  serve.root = FreshRoot("serve_no_files");
  serve.shards = 2;
  auto daemon = AuditDaemon::Start(serve);
  ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();
  for (size_t i = 0; i < (*fleet)->size(); ++i) {
    ASSERT_TRUE((*daemon)
                    ->AddInstance(FleetSimulator::InstanceName(i),
                                  (*fleet)->Config())
                    .ok());
  }
  auto tick = [&]() {
    for (size_t i = 0; i < (*fleet)->size(); ++i) {
      auto image = (*fleet)->Tick(i);
      ASSERT_TRUE(image.ok()) << image.status().ToString();
      ASSERT_TRUE((*daemon)
                      ->SubmitCapture(i, std::move(*image), (*fleet)->Log(i))
                      .ok());
    }
    (*daemon)->Drain();
  };
  auto inodes = [&serve]() {
    std::map<std::string, ino_t> out;
    for (const auto& entry : fs::recursive_directory_iterator(serve.root)) {
      struct stat st;
      EXPECT_EQ(stat(entry.path().c_str(), &st), 0) << entry.path();
      out[entry.path().lexically_relative(serve.root).string()] = st.st_ino;
    }
    return out;
  };
  tick();  // cold: creates each instance's repository
  const std::map<std::string, ino_t> cold = inodes();
  constexpr int kWarmTicks = 6;
  for (int t = 0; t < kWarmTicks; ++t) tick();
  EXPECT_EQ(inodes(), cold);

  const std::set<std::string> one = {"repo.bin"};
  for (size_t i = 0; i < (*fleet)->size(); ++i) {
    fs::path dir =
        fs::path(serve.root) / "instances" / FleetSimulator::InstanceName(i);
    std::set<std::string> files;
    for (const auto& entry : fs::directory_iterator(dir)) {
      EXPECT_TRUE(entry.is_regular_file()) << entry.path();
      files.insert(entry.path().filename().string());
    }
    EXPECT_EQ(files, one) << dir;
  }
  ASSERT_TRUE((*daemon)->Shutdown().ok());
  ServeStats stats = (*daemon)->Stats();
  EXPECT_EQ(stats.captures_failed, 0u);
  EXPECT_EQ(stats.snapshots, (*fleet)->size() * (kWarmTicks + 1));
}

TEST(ServeTest, StatsJsonIsWrittenAndWellFormed) {
  auto fleet = FleetSimulator::Make(SmallFleet(2, 0.0));
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  ServeOptions serve;
  serve.root = FreshRoot("serve_json");
  auto daemon = AuditDaemon::Start(serve);
  ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();
  for (size_t i = 0; i < (*fleet)->size(); ++i) {
    ASSERT_TRUE((*daemon)
                    ->AddInstance(FleetSimulator::InstanceName(i),
                                  (*fleet)->Config())
                    .ok());
  }
  auto image = (*fleet)->Tick(0);
  ASSERT_TRUE(image.ok());
  ASSERT_TRUE(
      (*daemon)->SubmitCapture(0, std::move(*image), (*fleet)->Log(0)).ok());
  (*daemon)->Drain();
  ASSERT_TRUE((*daemon)->Shutdown().ok());

  std::string json = (*daemon)->Stats().ToJson();
  EXPECT_NE(json.find("\"format\": \"dbfa-serve-stats v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"captures_completed\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"invariants\": \"ok\""), std::string::npos);
  // Balanced braces/brackets — cheap structural sanity without a parser.
  long depth = 0;
  for (char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(ServeTest, ResolveFindingClearsDedupAndAllowsRereport) {
  // One hand-built instance: a logged workload plus one unlogged INSERT
  // (the Section III-A attack). The attack row persists in storage, so
  // every capture re-detects it; the dedup set must suppress the repeats
  // until ResolveFinding clears the entry.
  auto db = Database::Open(DatabaseOptions{}).value();
  SyntheticWorkload workload(db.get(), "Accounts", 17);
  ASSERT_TRUE(workload.Setup(24).ok());
  db->audit_log().SetEnabled(false);
  ASSERT_TRUE(
      db->ExecuteSql("INSERT INTO Accounts VALUES (9001, 'Ghost', 'X', 1.0)")
          .ok());
  db->audit_log().SetEnabled(true);
  CarverConfig config;
  config.params = GetDialect(db->params().dialect).value();

  ServeOptions serve;
  serve.root = FreshRoot("serve_resolve");
  serve.shards = 1;
  auto daemon = AuditDaemon::Start(serve);
  ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();
  ASSERT_TRUE((*daemon)->AddInstance("inst", config).ok());

  auto submit = [&] {
    auto image = db->SnapshotDisk();
    ASSERT_TRUE(image.ok());
    ASSERT_TRUE(
        (*daemon)->SubmitCapture(0, std::move(*image), db->audit_log()).ok());
    (*daemon)->Drain();
  };
  submit();
  auto findings = (*daemon)->Findings();
  ASSERT_EQ(findings.size(), 1u);
  UnattributedModification mod = findings[0].mod;

  // Logged traffic appends to the attack row's page, so the incremental
  // re-match sees the row again — and the dedup entry suppresses it.
  ASSERT_TRUE(
      db->ExecuteSql("INSERT INTO Accounts VALUES (200, 'A', 'B', 2.0)")
          .ok());
  submit();
  EXPECT_EQ((*daemon)->Findings().size(), 1u);

  // Unknown instance ids are NotFound; resolution is idempotent.
  EXPECT_EQ((*daemon)->ResolveFinding(5, mod).status().code(),
            StatusCode::kNotFound);
  auto cleared = (*daemon)->ResolveFinding(0, mod);
  ASSERT_TRUE(cleared.ok());
  EXPECT_TRUE(*cleared);
  auto again = (*daemon)->ResolveFinding(0, mod);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(*again) << "entry already cleared";

  // After resolution a recurrence is re-reported as a fresh feed line.
  ASSERT_TRUE(
      db->ExecuteSql("INSERT INTO Accounts VALUES (201, 'C', 'D', 3.0)")
          .ok());
  submit();
  findings = (*daemon)->Findings();
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[1].mod.Key(), mod.Key());

  ASSERT_TRUE((*daemon)->Shutdown().ok());
  ServeStats stats = (*daemon)->Stats();
  EXPECT_EQ(stats.findings_resolved, 1u);
  EXPECT_EQ(stats.invariants, "ok");
  EXPECT_NE(stats.ToJson().find("\"findings_resolved\": 1"),
            std::string::npos);
}

TEST(ServeTest, FailedFeedAppendFailsCaptureAndKeepsFindingUnreported) {
  // The feed is the daemon's only durable output: a finding whose append
  // fails must not be counted, mirrored, or marked reported.
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  auto db = Database::Open(DatabaseOptions{}).value();
  SyntheticWorkload workload(db.get(), "Accounts", 17);
  ASSERT_TRUE(workload.Setup(24).ok());
  db->audit_log().SetEnabled(false);
  ASSERT_TRUE(
      db->ExecuteSql("INSERT INTO Accounts VALUES (9001, 'Ghost', 'X', 1.0)")
          .ok());
  db->audit_log().SetEnabled(true);
  CarverConfig config;
  config.params = GetDialect(db->params().dialect).value();

  ServeOptions serve;
  serve.root = FreshRoot("serve_feed_full");
  fs::create_directories(serve.root);
  fs::create_symlink("/dev/full",
                     fs::path(serve.root) / AuditDaemon::kFeedFile);
  serve.shards = 1;
  auto daemon = AuditDaemon::Start(serve);
  ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();
  ASSERT_TRUE((*daemon)->AddInstance("inst", config).ok());

  auto image = db->SnapshotDisk();
  ASSERT_TRUE(image.ok());
  auto carve = Carver(config, CarveOptions{}).Carve(*image);
  ASSERT_TRUE(carve.ok()) << carve.status().ToString();
  DbDetective detective(&*carve, &db->audit_log());
  auto mods = detective.FindUnattributedModifications();
  ASSERT_TRUE(mods.ok());
  ASSERT_EQ(mods->size(), 1u);

  for (int capture = 0; capture < 2; ++capture) {
    auto again = db->SnapshotDisk();
    ASSERT_TRUE(again.ok());
    ASSERT_TRUE(
        (*daemon)->SubmitCapture(0, std::move(*again), db->audit_log()).ok());
    (*daemon)->Drain();
  }
  EXPECT_TRUE((*daemon)->Findings().empty());
  // Never marked reported, so nothing to clear — and the second capture
  // tried (and failed) to report it again instead of deduplicating it.
  auto cleared = (*daemon)->ResolveFinding(0, (*mods)[0]);
  ASSERT_TRUE(cleared.ok());
  EXPECT_FALSE(*cleared);

  ASSERT_TRUE((*daemon)->Shutdown().ok());
  ServeStats stats = (*daemon)->Stats();
  EXPECT_EQ(stats.captures_failed, 2u);
  EXPECT_EQ(stats.captures_completed, 0u);
  EXPECT_EQ(stats.findings, 0u);
  ASSERT_EQ(stats.instances.size(), 1u);
  EXPECT_NE(stats.instances[0].last_error.find("IO_ERROR"), std::string::npos)
      << stats.instances[0].last_error;
  EXPECT_EQ(stats.invariants, "ok");
}

TEST(ServeTest, FailedStatsWriteFailsShutdown) {
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  ServeOptions serve;
  serve.root = FreshRoot("serve_stats_full");
  fs::create_directories(serve.root);
  fs::create_symlink("/dev/full",
                     fs::path(serve.root) / AuditDaemon::kStatsFile);
  auto daemon = AuditDaemon::Start(serve);
  ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();
  Status shutdown = (*daemon)->Shutdown();
  EXPECT_EQ(shutdown.code(), StatusCode::kIoError) << shutdown.ToString();
  EXPECT_EQ((*daemon)->Stats().invariants, "ok");
}

}  // namespace
}  // namespace dbfa
