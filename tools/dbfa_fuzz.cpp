// dbfa_fuzz — the adversarial image fuzzing campaign (docs/fuzzing.md).
//
//   dbfa_fuzz [--seed=N] [--mutants=N] [--dialects=a,b,...]
//             [--corpus-out=DIR] [--scratch=DIR] [--time-budget=SECONDS]
//   dbfa_fuzz --smoke                 # fixed-seed, time-boxed CI run
//   dbfa_fuzz --replay=DIR            # replay a committed corpus
//   dbfa_fuzz --make-corpus=DIR [--seed=N]   # regenerate curated corpus
//
// The campaign builds a clean synthetic image per dialect, applies
// seed-driven stacks of adversarial mutations, and checks every mutant
// under the never-crash + bounded-misattribution oracle (serial carve,
// parallel carves at 1/2/8 threads, snapshot ingest round-trips,
// detective runs, wrong-dialect carves). Failures are minimized and
// distilled into corpus entries.
//
// Exit codes: 0 clean, 1 fatal error, 2 usage, 3 oracle violations.
#include <cstdio>
#include <filesystem>
#include <string>

#include "common/strings.h"
#include "fuzz/campaign.h"
#include "fuzz/corpus.h"

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: dbfa_fuzz [--seed=N] [--mutants=N] [--dialects=a,b,...]\n"
      "                 [--corpus-out=DIR] [--scratch=DIR]\n"
      "                 [--time-budget=SECONDS] [--smoke]\n"
      "       dbfa_fuzz --replay=DIR\n"
      "       dbfa_fuzz --make-corpus=DIR [--seed=N]\n");
  return 2;
}

std::string DefaultScratchDir() {
  std::error_code ec;
  std::filesystem::path dir =
      std::filesystem::temp_directory_path(ec) / "dbfa_fuzz_scratch";
  if (ec) dir = "dbfa_fuzz_scratch";
  std::filesystem::create_directories(dir, ec);
  return dir.string();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dbfa;
  CampaignOptions options;
  options.seed = 1;
  // The full default campaign: >= 10,000 mutants across the 8 dialects.
  options.mutants_per_dialect = 1250;
  std::string replay_dir;
  std::string make_corpus_dir;
  bool smoke = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    uint64_t v = 0;
    if (arg.rfind("--seed=", 0) == 0) {
      if (!ParseU64(arg.c_str() + 7, &options.seed)) return Usage();
    } else if (arg.rfind("--mutants=", 0) == 0) {
      if (!ParseU64(arg.c_str() + 10, &v)) return Usage();
      options.mutants_per_dialect = static_cast<size_t>(v);
    } else if (arg.rfind("--dialects=", 0) == 0) {
      for (const std::string& d : Split(arg.substr(11), ',')) {
        std::string t(Trim(d));
        if (!t.empty()) options.dialects.push_back(t);
      }
    } else if (arg.rfind("--corpus-out=", 0) == 0) {
      options.corpus_dir = arg.substr(13);
    } else if (arg.rfind("--scratch=", 0) == 0) {
      options.scratch_dir = arg.substr(10);
    } else if (arg.rfind("--time-budget=", 0) == 0) {
      if (!ParseDouble(arg.c_str() + 14, &options.time_budget_seconds) ||
          options.time_budget_seconds < 0.0) {
        return Usage();
      }
    } else if (arg.rfind("--replay=", 0) == 0) {
      replay_dir = arg.substr(9);
    } else if (arg.rfind("--make-corpus=", 0) == 0) {
      make_corpus_dir = arg.substr(14);
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      return Usage();
    }
  }

  if (!make_corpus_dir.empty()) {
    Result<size_t> n = WriteCuratedCorpus(make_corpus_dir, options.seed);
    if (!n.ok()) {
      std::fprintf(stderr, "%s\n", n.status().ToString().c_str());
      return 1;
    }
    std::printf("wrote %zu corpus entries to %s\n", *n,
                make_corpus_dir.c_str());
    return 0;
  }

  if (!replay_dir.empty()) {
    Result<std::vector<std::string>> sidecars =
        ListCorpusSidecars(replay_dir);
    if (!sidecars.ok()) {
      std::fprintf(stderr, "%s\n", sidecars.status().ToString().c_str());
      return 1;
    }
    std::string scratch = options.scratch_dir.empty() ? DefaultScratchDir()
                                                      : options.scratch_dir;
    size_t failures = 0;
    for (const std::string& sidecar : *sidecars) {
      Status s = ReplayCorpusEntry(sidecar, scratch);
      std::printf("%-60s %s\n", sidecar.c_str(),
                  s.ok() ? "ok" : s.ToString().c_str());
      if (!s.ok()) ++failures;
    }
    std::printf("replayed %zu entries, %zu failures\n", sidecars->size(),
                failures);
    return failures == 0 ? 0 : 3;
  }

  if (smoke) {
    // Fixed seed, bounded wall clock: the CI configuration. Small enough
    // for an ASan build, large enough to cross every mutator/dialect pair.
    options.seed = 1;
    options.mutants_per_dialect = 40;
    options.time_budget_seconds = options.time_budget_seconds > 0
                                      ? options.time_budget_seconds
                                      : 60.0;
  }
  if (options.scratch_dir.empty()) options.scratch_dir = DefaultScratchDir();

  FuzzCampaign campaign(options);
  Result<CampaignReport> report = campaign.Run();
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf("%s", report->ToString().c_str());
  return report->failures.empty() ? 0 : 3;
}
