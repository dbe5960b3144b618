// dbfa-lint-fixture: path=src/engine/fake.cc rule=line-length expect=2
// clang-format off
// Known-bad input for dbfa_lint --self-test: lines wider than .clang-format's
// ColumnLimit (80) must be flagged. The CI format job reads this file too,
// which is what the clang-format off above is for; the linter does not
// honor it. Never compiled.
#include <string>

// One column past the limit is flagged: ----------------------------------------
int TooWide(int alpha, int beta, int gamma, int delta, int epsilon, int zeta_1) {
  return alpha + beta + gamma + delta + epsilon + zeta_1;
}
// Exactly 80 columns is not: --------------------------------------------------
// Each code point is one column, as clang-format counts — même ici: -----------
// dbfa-lint: allow(line-length): a justified exception is not flagged
std::string kLiteral = "a literal that the formatter would split into two pieces";
