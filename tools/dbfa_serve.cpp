// dbfa_serve — fleet-scale continuous-audit daemon driver
// (docs/continuous_audit.md).
//
//   dbfa_serve simulate <root> [--instances=N] [--ticks=N] [--shards=N]
//                       [--queue-capacity=N] [--block-on-full]
//                       [--attack-rate=P] [--seed-rows=N] [--ops-per-tick=N]
//                       [--dialect=NAME] [--seed=N] [--status] [--verify]
//   dbfa_serve status   <root>
//
// simulate runs a seeded fleet of MiniDB instances against the daemon:
// every tick each instance executes a workload batch (optionally injecting
// the Section III-A unlogged-statement attack), captures its storage, and
// submits the capture. The daemon ingests each capture into the instance's
// snapshot repository and re-matches the delta against the audit log;
// unattributed modifications land in <root>/findings.feed and counters in
// <root>/serve_stats.json.
//
// --verify scores the findings feed against the simulator's ground truth
// and the daemon's queue invariants; any violation exits 3 (the CI soak
// gate). status pretty-prints the stats JSON of a previous run.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/file_io.h"
#include "common/strings.h"
#include "serve/audit_daemon.h"
#include "workload/fleet.h"

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: dbfa_serve simulate <root> [--instances=N] [--ticks=N]\n"
      "                           [--shards=N] [--queue-capacity=N]\n"
      "                           [--block-on-full] [--attack-rate=P]\n"
      "                           [--seed-rows=N] [--ops-per-tick=N]\n"
      "                           [--dialect=NAME] [--seed=N]\n"
      "                           [--status] [--verify]\n"
      "       dbfa_serve status   <root>\n");
  return 2;
}

struct SimulateArgs {
  dbfa::FleetOptions fleet;
  dbfa::ServeOptions serve;
  uint64_t ticks = 4;
  bool print_status = false;
  bool verify = false;
};

/// Scores one simulate run: clean instances must have zero findings,
/// attacked instances with at least one successfully audited post-attack
/// capture must have at least one, and the daemon's final invariant check
/// must be "ok". Returns the number of violations, printing each.
size_t Verify(const dbfa::FleetSimulator& fleet,
              const dbfa::AuditDaemon& daemon, const dbfa::Status& shutdown,
              const std::vector<bool>& post_attack_accepted) {
  size_t violations = 0;
  if (!shutdown.ok()) {
    std::fprintf(stderr, "VIOLATION: shutdown: %s\n",
                 shutdown.ToString().c_str());
    ++violations;
  }
  std::vector<size_t> findings_per_instance(fleet.size(), 0);
  for (const dbfa::ServeFinding& finding : daemon.Findings()) {
    bool matched = false;
    for (size_t i = 0; i < fleet.size(); ++i) {
      if (finding.instance == dbfa::FleetSimulator::InstanceName(i)) {
        ++findings_per_instance[i];
        matched = true;
        break;
      }
    }
    if (!matched) {
      std::fprintf(stderr, "VIOLATION: finding for unknown instance: %s\n",
                   finding.ToString().c_str());
      ++violations;
    }
  }
  dbfa::ServeStats stats = daemon.Stats();
  for (size_t i = 0; i < fleet.size(); ++i) {
    size_t attacks = fleet.Attacks(i);
    if (attacks == 0 && findings_per_instance[i] != 0) {
      std::fprintf(stderr,
                   "VIOLATION: clean instance %s has %zu finding(s)\n",
                   dbfa::FleetSimulator::InstanceName(i).c_str(),
                   findings_per_instance[i]);
      ++violations;
    }
    // An attacked instance is only guaranteed a finding if some capture
    // taken after its first attack was accepted and audited cleanly;
    // under forced backpressure every post-attack capture may have been
    // rejected, and a failed ingest audits nothing.
    if (attacks > 0 && findings_per_instance[i] == 0 &&
        post_attack_accepted[i] && stats.instances[i].captures_failed == 0) {
      std::fprintf(
          stderr,
          "VIOLATION: attacked instance %s (%zu attack(s)) has no "
          "findings despite %llu audited capture(s)\n",
          dbfa::FleetSimulator::InstanceName(i).c_str(), attacks,
          static_cast<unsigned long long>(
              stats.instances[i].captures_completed));
      ++violations;
    }
  }
  return violations;
}

int Simulate(const SimulateArgs& args) {
  auto fleet = dbfa::FleetSimulator::Make(args.fleet);
  if (!fleet.ok()) {
    std::fprintf(stderr, "fleet: %s\n", fleet.status().ToString().c_str());
    return 1;
  }
  auto daemon = dbfa::AuditDaemon::Start(args.serve);
  if (!daemon.ok()) {
    std::fprintf(stderr, "daemon: %s\n", daemon.status().ToString().c_str());
    return 1;
  }
  for (size_t i = 0; i < (*fleet)->size(); ++i) {
    auto id = (*daemon)->AddInstance(dbfa::FleetSimulator::InstanceName(i),
                                     (*fleet)->Config());
    if (!id.ok()) {
      std::fprintf(stderr, "register: %s\n", id.status().ToString().c_str());
      return 1;
    }
  }
  uint64_t rejected = 0;
  // Ground truth for --verify: was any capture taken at-or-after an
  // instance's first attack actually accepted? (Tick captures after
  // injecting, so the same tick's capture already contains the attack.)
  std::vector<bool> post_attack_accepted((*fleet)->size(), false);
  for (uint64_t tick = 0; tick < args.ticks; ++tick) {
    for (size_t i = 0; i < (*fleet)->size(); ++i) {
      auto image = (*fleet)->Tick(i);
      if (!image.ok()) {
        std::fprintf(stderr, "tick: %s\n", image.status().ToString().c_str());
        return 1;
      }
      dbfa::Status submitted = (*daemon)->SubmitCapture(
          i, std::move(*image), (*fleet)->Log(i));
      if (submitted.code() == dbfa::StatusCode::kUnavailable) {
        ++rejected;  // backpressure working as designed
      } else if (!submitted.ok()) {
        std::fprintf(stderr, "submit: %s\n", submitted.ToString().c_str());
        return 1;
      } else if ((*fleet)->Attacks(i) > 0) {
        post_attack_accepted[i] = true;
      }
    }
  }
  (*daemon)->Drain();
  dbfa::Status shutdown = (*daemon)->Shutdown();
  if (args.print_status) {
    std::fputs((*daemon)->Stats().ToString().c_str(), stdout);
  }
  std::printf(
      "simulated %zu instance(s) x %llu tick(s): %llu findings, "
      "%llu rejected capture(s); stats in %s\n",
      (*fleet)->size(), static_cast<unsigned long long>(args.ticks),
      static_cast<unsigned long long>((*daemon)->Stats().findings),
      static_cast<unsigned long long>(rejected),
      (std::string(args.serve.root) + "/" +
       dbfa::AuditDaemon::kStatsFile).c_str());
  if (args.verify) {
    size_t violations =
        Verify(**fleet, **daemon, shutdown, post_attack_accepted);
    if (violations != 0) {
      std::fprintf(stderr, "verify: %zu violation(s)\n", violations);
      return 3;
    }
    std::printf("verify: ok\n");
  } else if (!shutdown.ok()) {
    std::fprintf(stderr, "shutdown: %s\n", shutdown.ToString().c_str());
    return 1;
  }
  return 0;
}

int PrintStatus(const std::string& root) {
  std::string path = root + "/" + dbfa::AuditDaemon::kStatsFile;
  auto text = dbfa::ReadFile(path);
  if (!text.ok()) {
    std::fprintf(stderr, "status: %s (did a simulate run complete?)\n",
                 text.status().ToString().c_str());
    return 1;
  }
  std::fwrite(text->data(), 1, text->size(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  std::string command = argv[1];
  if (command == "status") return PrintStatus(argv[2]);
  if (command != "simulate") return Usage();

  SimulateArgs args;
  args.serve.root = argv[2];
  for (int i = 3; i < argc; ++i) {
    std::string arg = argv[i];
    uint64_t v = 0;
    double d = 0.0;
    if (arg.rfind("--instances=", 0) == 0) {
      if (!dbfa::ParseU64(arg.c_str() + 12, &v) || v == 0) return Usage();
      args.fleet.instances = static_cast<size_t>(v);
    } else if (arg.rfind("--ticks=", 0) == 0) {
      if (!dbfa::ParseU64(arg.c_str() + 8, &v)) return Usage();
      args.ticks = v;
    } else if (arg.rfind("--shards=", 0) == 0) {
      if (!dbfa::ParseU64(arg.c_str() + 9, &v) || v == 0) return Usage();
      args.serve.shards = static_cast<size_t>(v);
    } else if (arg.rfind("--queue-capacity=", 0) == 0) {
      if (!dbfa::ParseU64(arg.c_str() + 17, &v)) return Usage();
      args.serve.queue_capacity = static_cast<size_t>(v);
    } else if (arg == "--block-on-full") {
      args.serve.block_on_full = true;
    } else if (arg.rfind("--attack-rate=", 0) == 0) {
      if (!dbfa::ParseDouble(arg.c_str() + 14, &d) || d < 0.0 || d > 1.0) {
        return Usage();
      }
      args.fleet.attack_rate = d;
    } else if (arg.rfind("--seed-rows=", 0) == 0) {
      if (!dbfa::ParseU64(arg.c_str() + 12, &v)) return Usage();
      args.fleet.seed_rows = static_cast<int>(v);
    } else if (arg.rfind("--ops-per-tick=", 0) == 0) {
      if (!dbfa::ParseU64(arg.c_str() + 15, &v)) return Usage();
      args.fleet.ops_per_tick = static_cast<int>(v);
    } else if (arg.rfind("--dialect=", 0) == 0) {
      args.fleet.dialect = arg.substr(10);
    } else if (arg.rfind("--seed=", 0) == 0) {
      if (!dbfa::ParseU64(arg.c_str() + 7, &v)) return Usage();
      args.fleet.seed = v;
    } else if (arg == "--status") {
      args.print_status = true;
    } else if (arg == "--verify") {
      args.verify = true;
    } else {
      return Usage();
    }
  }
  return Simulate(args);
}
