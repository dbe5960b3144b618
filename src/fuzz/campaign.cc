#include "fuzz/campaign.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/rng.h"
#include "common/strings.h"
#include "core/carver.h"
#include "engine/catalog.h"
#include "engine/database.h"
#include "fuzz/corpus.h"
#include "storage/dialects.h"
#include "workload/synthetic.h"

namespace dbfa {
namespace {

/// splitmix64-style mixing so per-mutant streams are independent.
uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<Mutation> DrawMutations(Rng* rng, size_t max_mutations) {
  size_t n = static_cast<size_t>(
      rng->Uniform(1, static_cast<int64_t>(max_mutations)));
  std::vector<Mutation> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Mutation m;
    m.kind = static_cast<MutatorKind>(rng->NextU64() % kMutatorKindCount);
    m.seed = rng->NextU64();
    out.push_back(m);
  }
  return out;
}

}  // namespace

std::string CampaignFailure::ToString() const {
  return StrFormat("[%s #%zu] %s  (mutations: %s)%s", dialect.c_str(),
                   mutant_index, violation.c_str(),
                   MutationListToString(mutations).c_str(),
                   corpus_name.empty()
                       ? ""
                       : StrFormat("  -> corpus %s", corpus_name.c_str())
                             .c_str());
}

std::string CampaignReport::ToString() const {
  std::string out = StrFormat(
      "campaign: %zu dialects, %zu mutants, %zu snapshot round-trips, "
      "%zu detective runs, %zu confusion carves%s\n",
      dialects_fuzzed, mutants_run, snapshot_checks, detective_checks,
      confusion_checks,
      truncated_by_budget ? " (truncated by time budget)" : "");
  if (failures.empty()) {
    out += "no oracle violations\n";
  } else {
    out += StrFormat("%zu oracle violations:\n", failures.size());
    for (const CampaignFailure& f : failures) {
      out += "  " + f.ToString() + "\n";
    }
  }
  return out;
}

Result<BaselineImage> BuildBaseline(const std::string& dialect,
                                    uint64_t seed, int rows, int ops) {
  DatabaseOptions db_options;
  db_options.dialect = dialect;
  DBFA_ASSIGN_OR_RETURN(std::unique_ptr<Database> db,
                        Database::Open(db_options));
  SyntheticWorkload workload(db.get(), "Accounts", seed);
  DBFA_RETURN_IF_ERROR(workload.Setup(rows));
  DBFA_RETURN_IF_ERROR(workload.Run(ops, OpMix{}, /*logged=*/true));
  // A dropped table (unallocated-page material for the wiper) and two
  // unlogged statements (so the detective has real findings to bound).
  DBFA_RETURN_IF_ERROR(
      db->ExecuteSql("CREATE TABLE Shadow (k INT, secret VARCHAR(32), "
                     "PRIMARY KEY (k))")
          .status());
  DBFA_RETURN_IF_ERROR(
      db->ExecuteSql("INSERT INTO Shadow VALUES (1, 'dropped-secret')")
          .status());
  DBFA_RETURN_IF_ERROR(db->ExecuteSql("DROP TABLE Shadow").status());
  DBFA_RETURN_IF_ERROR(workload.RunStatement(
      "DELETE FROM Accounts WHERE Owner = 'Thomas'", /*logged=*/false));
  DBFA_RETURN_IF_ERROR(workload.RunStatement(
      "INSERT INTO Accounts VALUES (99001, 'Mallory', 'Shadow', 1.0)",
      /*logged=*/false));

  BaselineImage baseline;
  DBFA_ASSIGN_OR_RETURN(PageLayoutParams params, GetDialect(dialect));
  baseline.config.params = std::move(params);
  baseline.config.catalog_object_id = kCatalogObjectId;
  DBFA_ASSIGN_OR_RETURN(baseline.image, db->SnapshotDisk());
  baseline.log = db->audit_log();
  DBFA_ASSIGN_OR_RETURN(baseline.carve,
                        Carver(baseline.config).Carve(baseline.image));
  if (baseline.carve.pages.empty() || baseline.carve.records.empty()) {
    return Status::Internal(
        StrFormat("baseline for %s carved empty", dialect.c_str()));
  }
  return baseline;
}

std::vector<Mutation> MinimizeMutations(
    const std::vector<Mutation>& mutations,
    const std::function<bool(const std::vector<Mutation>&)>& fails) {
  // Classic ddmin over the mutation list: try dropping complements of
  // ever-finer chunks; restart at halves whenever a drop still fails.
  std::vector<Mutation> current = mutations;
  size_t chunks = 2;
  while (current.size() >= 2) {
    size_t chunk_len = (current.size() + chunks - 1) / chunks;
    bool reduced = false;
    for (size_t start = 0; start < current.size(); start += chunk_len) {
      std::vector<Mutation> candidate;
      candidate.reserve(current.size());
      for (size_t i = 0; i < current.size(); ++i) {
        if (i < start || i >= start + chunk_len) {
          candidate.push_back(current[i]);
        }
      }
      if (candidate.empty()) continue;
      if (fails(candidate)) {
        current = std::move(candidate);
        chunks = chunks > 2 ? chunks - 1 : 2;
        reduced = true;
        break;
      }
    }
    if (!reduced) {
      if (chunk_len <= 1) break;
      chunks = std::min(current.size(), chunks * 2);
    }
  }
  return current;
}

Result<CampaignReport> FuzzCampaign::Run() {
  std::vector<std::string> dialects = options_.dialects;
  if (dialects.empty()) dialects = BuiltinDialectNames();
  if (options_.snapshot_every > 0 && options_.scratch_dir.empty()) {
    return Status::InvalidArgument(
        "snapshot checks need CampaignOptions::scratch_dir");
  }

  CampaignReport report;
  auto start = std::chrono::steady_clock::now();
  auto out_of_budget = [&]() {
    if (options_.time_budget_seconds <= 0) return false;
    std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    return elapsed.count() >= options_.time_budget_seconds;
  };

  for (size_t di = 0; di < dialects.size(); ++di) {
    const std::string& dialect = dialects[di];
    DBFA_ASSIGN_OR_RETURN(
        BaselineImage baseline,
        BuildBaseline(dialect, Mix(options_.seed, di),
                      options_.workload_rows, options_.workload_ops));
    ++report.dialects_fuzzed;

    // Wrong-dialect configs for the confusion checks, built once.
    std::vector<CarverConfig> wrong_configs;
    for (const std::string& other : BuiltinDialectNames()) {
      if (other == dialect) continue;
      CarverConfig wrong;
      DBFA_ASSIGN_OR_RETURN(wrong.params, GetDialect(other));
      wrong.catalog_object_id = kCatalogObjectId;
      wrong_configs.push_back(std::move(wrong));
    }

    for (size_t mi = 0; mi < options_.mutants_per_dialect; ++mi) {
      if (out_of_budget()) {
        report.truncated_by_budget = true;
        break;
      }
      Rng rng(Mix(Mix(options_.seed, di), mi));
      std::vector<Mutation> mutations =
          DrawMutations(&rng, options_.max_mutations_per_mutant);
      Bytes mutant = baseline.image;
      ApplyMutations(baseline.config, mutations, &mutant);
      ++report.mutants_run;

      OracleOptions oracle = options_.oracle;
      bool snapshot = options_.snapshot_every > 0 &&
                      mi % options_.snapshot_every == 0;
      oracle.snapshot_scratch_dir =
          snapshot ? options_.scratch_dir : std::string();
      bool detective = options_.detective_every > 0 &&
                       mi % options_.detective_every == 0;
      oracle.audit_log = detective ? &baseline.log : nullptr;
      if (snapshot) ++report.snapshot_checks;
      if (detective) ++report.detective_checks;

      std::string violation =
          CheckMutant(baseline.config, mutant, &baseline.carve, oracle);

      // Dialect confusion: a wrong config over the mutant must neither
      // crash nor claim the evidence as its own dialect's pages.
      if (violation.empty() && options_.confusion_every > 0 &&
          mi % options_.confusion_every == 0) {
        const CarverConfig& wrong =
            wrong_configs[(mi / options_.confusion_every) %
                          wrong_configs.size()];
        ++report.confusion_checks;
        Result<CarveResult> cross = Carver(wrong).Carve(mutant);
        if (cross.ok() && !cross->pages.empty()) {
          violation = StrFormat(
              "dialect confusion: %s config accepted %zu pages of a %s "
              "image",
              wrong.params.dialect.c_str(), cross->pages.size(),
              dialect.c_str());
        }
      }

      if (violation.empty()) continue;

      // Shrink the mutation list to the minimal failing core, then
      // distill it into the corpus (when a corpus dir was given).
      auto still_fails = [&](const std::vector<Mutation>& candidate) {
        Bytes probe = baseline.image;
        ApplyMutations(baseline.config, candidate, &probe);
        return !CheckMutant(baseline.config, probe, &baseline.carve, oracle)
                    .empty();
      };
      CampaignFailure failure;
      failure.dialect = dialect;
      failure.mutant_index = mi;
      failure.mutations =
          still_fails(mutations) ? MinimizeMutations(mutations, still_fails)
                                 : mutations;
      failure.violation = violation;
      if (!options_.corpus_dir.empty()) {
        CorpusEntry entry;
        entry.name = StrFormat("%s_%s_%04zu", dialect.c_str(),
                               MutatorKindName(failure.mutations[0].kind),
                               mi);
        entry.dialect = dialect;
        entry.mutations = failure.mutations;
        entry.note = "distilled campaign failure: " + violation;
        Bytes distilled = baseline.image;
        ApplyMutations(baseline.config, failure.mutations, &distilled);
        Result<CarveResult> carve =
            Carver(baseline.config).Carve(distilled);
        if (carve.ok()) {
          entry.expect_pages = carve->pages.size();
          entry.expect_checksum_failures = carve->stats.checksum_failures;
          entry.expect_records = carve->records.size();
          entry.expect_deleted = carve->CountRecords(RowStatus::kDeleted);
          entry.expect_index_entries = carve->index_entries.size();
          entry.expect_catalog_entries = carve->catalog_entries.size();
          entry.expect_schemas = carve->schemas.size();
        }
        if (SaveCorpusEntry(options_.corpus_dir, entry, distilled).ok()) {
          failure.corpus_name = entry.name;
        }
      }
      report.failures.push_back(std::move(failure));
    }
    if (report.truncated_by_budget) break;
  }
  return report;
}

}  // namespace dbfa
